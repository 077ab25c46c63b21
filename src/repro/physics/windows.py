"""Per-level active bin windows: accuracy-budgeted pruning of the RRC grid.

Each level's Eq. (1) integrand is identically zero below its recombination
edge ``I_l`` and decays as ``exp(-(E - I_l)/kT)`` above it, so out of the
``n_levels x n_bins`` bin integrals a kernel launch nominally covers, only
the bins inside a per-level window

    [first_bin(I_l), cutoff_bin(I_l + tau)]

can contribute more than a requested relative tail tolerance.  The cutoff
distance ``tau`` comes from the closed-form tail mass of the Kramers+Milne
collapsed integrand (:func:`repro.physics.rrc.analytic_bin_integral`):
the mass beyond ``E`` is exactly ``C * kT * exp(-(E - I)/kT)`` for
``gaunt=False``, and bounded by a constant multiple of it for
``gaunt=True`` because the Gaunt correction is bounded on the grid's
``x = E/I`` range.  Choosing ``tau`` so that the dropped tail is at most
``tail_tol`` times the level's total emission above its edge gives every
batch kernel a license to skip the inactive bins.

:class:`LevelWindows` is consumed by the window kernels in
:mod:`repro.quadrature.batch` and :mod:`repro.physics.rrc_kernel`, and by the
service cost model (:func:`repro.service.requests.compile_tasks`), which
prices tasks by *active* integral counts so the simulated device, the
scheduler's load counters, and the autotuner all see the cheaper tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.physics.rrc import gaunt_factor
from repro.physics.spectrum import EnergyGrid

__all__ = [
    "GAUNT_SUP",
    "LevelWindows",
    "gaunt_range_bounds",
    "tail_cutoff_kev",
    "level_windows",
]

#: Safe upper bound on :func:`repro.physics.rrc.gaunt_factor` over
#: ``x >= 1`` (the true supremum is ~1.02489 at x ~ 4.9; the factor is
#: unimodal — it rises from g(1) = 1 to the peak, then decays like
#: ``x**(-1/3)``).
GAUNT_SUP: float = 1.03


def gaunt_range_bounds(x_max: float) -> tuple[float, float]:
    """(inf, sup) of :func:`gaunt_factor` over ``x in [1, x_max]``.

    The factor is unimodal on ``[1, inf)``, so its infimum over an
    interval starting at 1 is attained at an endpoint; the supremum is
    the global one (:data:`GAUNT_SUP`) once the interval covers the peak.
    """
    if x_max < 1.0:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    g_end = float(gaunt_factor(np.array(x_max)))
    return min(1.0, g_end), GAUNT_SUP


def tail_cutoff_kev(
    kt_kev: float,
    tail_tol: float,
    gaunt: bool = True,
    x_max: float = 1.0,
) -> float:
    """Cutoff distance ``tau`` above a level's edge for a tail tolerance.

    Dropping everything beyond ``I + tau`` discards at most ``tail_tol``
    of the level's total emission above its edge:

    - ``gaunt=False``: tail mass beyond ``I + tau`` is exactly
      ``C kT exp(-tau/kT)`` while the total is ``C kT``, so
      ``tau = kT ln(1/tail_tol)``;
    - ``gaunt=True``: the dropped tail gains at most a factor
      :data:`GAUNT_SUP` and the kept mass shrinks by at most the
      infimum of the Gaunt factor over the grid's ``x = E/I`` range
      (``x_max`` = highest grid energy over smallest edge), so the
      budget widens to ``tau = kT ln(sup/(inf * tail_tol))``.

    ``tail_tol = 0`` disables the cutoff (``tau = inf``).
    """
    if kt_kev <= 0.0:
        raise ValueError("kT must be positive")
    if tail_tol < 0.0:
        raise ValueError("tail tolerance must be non-negative")
    if tail_tol == 0.0:
        return float("inf")
    if gaunt:
        g_inf, g_sup = gaunt_range_bounds(max(1.0, x_max))
        safety = g_sup / g_inf
    else:
        safety = 1.0
    return kt_kev * float(np.log(safety / tail_tol))


@dataclass(frozen=True)
class LevelWindows:
    """Active bin windows of one ion's levels on one energy grid.

    Level ``l`` touches exactly the bins ``first[l] <= b < cutoff[l]``;
    an empty window (``first[l] == cutoff[l]``) means the whole level is
    skippable (its edge sits above the grid, or the grid starts beyond
    its accuracy-budgeted tail).

    Attributes
    ----------
    first, cutoff:
        Per-level half-open bin ranges (int64 arrays).
    tau_kev:
        The tail-cutoff distance used (``inf`` when ``tail_tol = 0``).
    n_bins:
        Bins of the underlying grid.
    """

    first: np.ndarray
    cutoff: np.ndarray
    tau_kev: float
    n_bins: int

    @property
    def counts(self) -> np.ndarray:
        """Active bins per level."""
        return self.cutoff - self.first

    @property
    def n_active(self) -> int:
        """Total active (level, bin) pairs — the pruned integral count."""
        return int(self.counts.sum())


def level_windows(
    energies_kev: np.ndarray,
    grid: EnergyGrid,
    kt_kev: float,
    tail_tol: float,
    gaunt: bool = True,
) -> LevelWindows:
    """Compute the active window of every level on ``grid``.

    Parameters
    ----------
    energies_kev:
        Per-level binding energies ``I_l`` (the recombination edges).
    kt_kev:
        Plasma thermal energy (sets the tail decay scale).
    tail_tol:
        Relative tail tolerance; ``0`` keeps every bin above each edge
        (no cutoff) — the windows then only encode the exact-zero region
        below the edges.
    gaunt:
        Whether the integrand carries the Gaunt correction; widens the
        cutoff by the rigorous constant-factor bound.
    """
    energies = np.asarray(energies_kev, dtype=np.float64)
    if energies.ndim != 1:
        raise ValueError("energies must be a 1-D array")
    n_bins = grid.n_bins
    if energies.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return LevelWindows(
            first=empty,
            cutoff=empty.copy(),
            tau_kev=float("inf"),
            n_bins=n_bins,
        )
    if np.any(energies <= 0.0):
        raise ValueError("binding energies must be positive")
    x_max = float(grid.upper[-1] / energies.min())
    tau = tail_cutoff_kev(kt_kev, tail_tol, gaunt=gaunt, x_max=max(1.0, x_max))

    # First bin whose upper edge clears the recombination edge ...
    first = np.searchsorted(grid.upper, energies, side="right")
    # ... and first bin lying entirely beyond the budgeted tail.
    if np.isinf(tau):
        cutoff = np.full(energies.shape, n_bins, dtype=np.int64)
    else:
        cutoff = np.searchsorted(grid.lower, energies + tau, side="left")
    first = np.minimum(first, n_bins).astype(np.int64)
    cutoff = np.maximum(np.minimum(cutoff, n_bins).astype(np.int64), first)
    return LevelWindows(first=first, cutoff=cutoff, tau_kev=tau, n_bins=n_bins)
