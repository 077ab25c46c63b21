"""Spectral fitting — the use case that motivates the paper.

"So it is a common task for modern astronomers to fit the observed
spectrum with the spectrum calculated from theoretical models in order to
verify their researches."  Each fit iteration needs a full model spectrum
at trial parameters — which is exactly why fast spectral calculation
matters.  This module provides the minimal observing + fitting loop:

- :class:`InstrumentResponse`: Gaussian energy-redistribution matrix
  (a toy RMF) applied to model spectra;
- :func:`mock_observation`: expected counts for an exposure, optionally
  with deterministic (seeded) Poisson noise;
- :func:`fit_temperature`: golden-section minimization of chi^2 over
  plasma temperature, each trial evaluated with the fast batched kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import erf

from repro.physics.apec import GridPoint, SerialAPEC
from repro.physics.spectrum import EnergyGrid, Spectrum

__all__ = [
    "InstrumentResponse",
    "mock_observation",
    "chi_squared",
    "FitResult",
    "fit_temperature",
]


@dataclass(frozen=True)
class InstrumentResponse:
    """Gaussian energy redistribution on a grid (a toy detector RMF).

    ``fwhm_kev`` is the detector resolution; the redistribution matrix
    is built with erf-integrated Gaussians so counts are conserved for
    photons that stay on the grid.
    """

    grid: EnergyGrid
    fwhm_kev: float
    effective_area: float = 1.0

    def __post_init__(self) -> None:
        if self.fwhm_kev <= 0.0:
            raise ValueError("FWHM must be positive")
        if self.effective_area <= 0.0:
            raise ValueError("effective area must be positive")
        sigma = self.fwhm_kev / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        centers = self.grid.centers
        edges = self.grid.edges
        z = (edges[None, :] - centers[:, None]) / (np.sqrt(2.0) * sigma)
        cdf = 0.5 * (1.0 + erf(z))
        matrix = np.diff(cdf, axis=1)  # (true bin, measured bin)
        object.__setattr__(self, "_matrix", matrix)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix  # type: ignore[attr-defined]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Fold per-bin model flux through the response."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.grid.n_bins,):
            raise ValueError("flux shape does not match the response grid")
        return self.effective_area * (values @ self.matrix)


def mock_observation(
    model: Spectrum,
    response: InstrumentResponse,
    exposure: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Observed counts for a model spectrum.

    Deterministic expected counts when ``rng`` is None; seeded Poisson
    deviates otherwise.  The model's absolute normalization is arbitrary
    (package convention), so ``exposure`` doubles as the scale knob that
    sets the counting statistics.
    """
    if exposure <= 0.0:
        raise ValueError("exposure must be positive")
    expected = exposure * response.apply(model.values)
    if rng is None:
        return expected
    return rng.poisson(expected).astype(np.float64)


def chi_squared(model_counts: np.ndarray, observed: np.ndarray) -> float:
    """Pearson chi^2 with the usual max(model, 1) variance floor."""
    model_counts = np.asarray(model_counts, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if model_counts.shape != observed.shape:
        raise ValueError("shape mismatch")
    var = np.maximum(model_counts, 1.0)
    return float(np.sum((observed - model_counts) ** 2 / var))


@dataclass
class FitResult:
    """Outcome of a 1-D temperature fit."""

    temperature_k: float
    chi2: float
    n_model_evals: int
    history: list[tuple[float, float]] = field(default_factory=list)

    def chi2_curve(self) -> tuple[np.ndarray, np.ndarray]:
        h = sorted(self.history)
        return np.array([t for t, _ in h]), np.array([c for _, c in h])


def fit_temperature(
    apec: SerialAPEC,
    observed: np.ndarray,
    response: InstrumentResponse,
    exposure: float,
    t_bounds: tuple[float, float] = (1.0e6, 1.0e8),
    ne_cm3: float = 1.0,
    tol: float = 1.0e-3,
    max_evals: int = 60,
    model_cache: Optional[Callable[[float], Spectrum]] = None,
) -> FitResult:
    """Golden-section search for the best-fit plasma temperature.

    The search runs in log10(T) (temperatures span decades); each trial
    computes a full model spectrum — with the batched kernel this is
    milliseconds, with per-bin QAGS it would be the paper's problem
    statement.
    """
    lo, hi = t_bounds
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < t_lo < t_hi")
    history: list[tuple[float, float]] = []

    def model(t: float) -> Spectrum:
        if model_cache is not None:
            return model_cache(t)
        return apec.compute(GridPoint(temperature_k=t, ne_cm3=ne_cm3))

    def objective(log_t: float) -> float:
        t = 10.0**log_t
        counts = exposure * response.apply(model(t).values)
        c2 = chi_squared(counts, observed)
        history.append((t, c2))
        return c2

    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log10(lo), np.log10(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    evals = 2
    while (b - a) > tol and evals < max_evals:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
        evals += 1

    best_t, best_c2 = min(history, key=lambda tc: tc[1])
    return FitResult(
        temperature_k=best_t, chi2=best_c2, n_model_evals=len(history), history=history
    )
