"""Energy grids and the Spectrum container (the Eq. 2 output).

The paper reports spectra as normalized flux against wavelength (Fig. 7,
10–45 Angstrom); internally everything is binned in photon energy.  The
grid owns the bin edges; a :class:`Spectrum` pairs a grid with per-bin
emissivities and supports the operations the experiments need: addition
(accumulating ions), normalization, wavelength view, and relative-error
comparison (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.constants import HC_KEV_ANGSTROM

__all__ = ["EnergyGrid", "Spectrum"]


@dataclass(frozen=True)
class EnergyGrid:
    """Contiguous photon-energy bins.

    ``edges`` has ``n_bins + 1`` strictly ascending entries in keV.
    """

    edges: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be 1-D with at least 2 entries")
        if edges[0] <= 0.0:
            raise ValueError("energies must be positive")
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must be strictly ascending")
        object.__setattr__(self, "edges", edges)
        self.edges.setflags(write=False)

    @classmethod
    def linear(cls, e_min_kev: float, e_max_kev: float, n_bins: int) -> "EnergyGrid":
        """Uniform bins between two energies."""
        if n_bins < 1:
            raise ValueError("need at least one bin")
        if not 0.0 < e_min_kev < e_max_kev:
            raise ValueError("need 0 < e_min < e_max")
        return cls(np.linspace(e_min_kev, e_max_kev, n_bins + 1))

    @classmethod
    def from_wavelength(
        cls, lambda_min_a: float, lambda_max_a: float, n_bins: int
    ) -> "EnergyGrid":
        """Uniform-in-wavelength bins (Fig. 7's x-axis), stored in energy.

        The shortest wavelength maps to the highest energy, so edges are
        reversed to stay ascending in energy.
        """
        if not 0.0 < lambda_min_a < lambda_max_a:
            raise ValueError("need 0 < lambda_min < lambda_max")
        wl = np.linspace(lambda_min_a, lambda_max_a, n_bins + 1)
        return cls((HC_KEV_ANGSTROM / wl)[::-1].copy())

    @cached_property
    def fingerprint(self) -> str:
        """Content address: sha1 of the exact edge bytes (the edges are
        read-only, so it is taken once per grid)."""
        # Imported here: hashlib maps libcrypto (3.6 MiB of RSS), and not
        # everything that imports a grid fingerprints one.
        import hashlib

        return hashlib.sha1(self.edges.tobytes()).hexdigest()

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1

    @property
    def lower(self) -> np.ndarray:
        return self.edges[:-1]

    @property
    def upper(self) -> np.ndarray:
        return self.edges[1:]

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def wavelength_centers(self) -> np.ndarray:
        """Bin-center wavelengths in Angstrom (descending as energy rises)."""
        return HC_KEV_ANGSTROM / self.centers


@dataclass
class Spectrum:
    """Per-bin integrated emission Lambda_RRC(E_bin) on a grid."""

    grid: EnergyGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n_bins,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_bins} bins)"
            )

    @classmethod
    def zeros(cls, grid: EnergyGrid, **meta: object) -> "Spectrum":
        return cls(grid=grid, values=np.zeros(grid.n_bins), meta=dict(meta))

    def __add__(self, other: "Spectrum") -> "Spectrum":
        # Keep the left operand's meta, matching __iadd__.
        self._check_same_grid(other)
        return Spectrum(
            grid=self.grid,
            values=self.values + other.values,
            meta=dict(self.meta),
        )

    def __iadd__(self, other: "Spectrum") -> "Spectrum":
        self._check_same_grid(other)
        self.values += other.values
        return self

    def accumulate(self, bin_values: np.ndarray) -> None:
        """In-place add of a raw per-bin array (one ion's contribution)."""
        bin_values = np.asarray(bin_values, dtype=np.float64)
        if bin_values.shape != self.values.shape:
            raise ValueError("shape mismatch in accumulate")
        self.values += bin_values

    def normalized(self) -> "Spectrum":
        """Flux scaled so the peak bin equals 1 (Fig. 7's y-axis)."""
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return Spectrum(grid=self.grid, values=self.values.copy(), meta=dict(self.meta))
        return Spectrum(
            grid=self.grid, values=self.values / peak, meta=dict(self.meta)
        )

    def total(self) -> float:
        """Total emitted power (sum over bins; Eq. 2 already integrated)."""
        return float(np.sum(self.values))

    def relative_error_percent(self, reference: "Spectrum") -> np.ndarray:
        """Per-bin relative error vs a reference, in percent (Fig. 8).

        Bins where the reference is zero are reported as 0 when both agree
        and excluded (NaN) otherwise, matching how the paper's error
        histogram ignores empty bins.
        """
        self._check_same_grid(reference)
        ref = reference.values
        out = np.full(ref.shape, np.nan)
        nz = ref != 0.0
        out[nz] = (self.values[nz] - ref[nz]) / ref[nz] * 100.0
        both_zero = (~nz) & (self.values == 0.0)
        out[both_zero] = 0.0
        return out

    def _check_same_grid(self, other: "Spectrum") -> None:
        if self.grid.n_bins != other.grid.n_bins or not np.array_equal(
            self.grid.edges, other.grid.edges
        ):
            raise ValueError("spectra live on different grids")
