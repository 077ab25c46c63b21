"""Serial APEC-style spectral calculator — the three nested loops of Fig. 1.

For each grid point (temperature, density, time) the RRC emissivity is
integrated over every energy bin of every level of every ion:

    for ion in 496 ions:
        for level in thousands of levels:
            for bin in ~1e5 energy bins:
                Lambda_RRC(bin) += integral of Eq. (1) over the bin

:class:`SerialAPEC` is the model: with a batch rule it executes the
compiled plan of :mod:`repro.physics.plan` (Algorithm 2's shape — every
level x bin of the ion set in one launch); with a scalar rule it loops
the oracle below over the ions.  Two per-ion functions stay beside it as
accuracy references, mirroring the paper's CPU and GPU code paths:

- :func:`ion_emissivity_scalar` — one scalar integration per (level, bin),
  using QAGS (the paper's CPU fallback) or scalar Simpson;
- :func:`ion_emissivity_batched` — all bins of all levels of one ion in
  one vectorized launch (the unit of work of a coarse-grained ``Ion``
  task), with Simpson (default, 64 pieces), Romberg (accuracy-scaled by
  ``k``) or Gauss-Legendre rules, on the plan's kernel.  Summed over the
  ions in order it checks the plan's summation order (<= 1e-12 relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.atomic.abundances import SOLAR, AbundanceSet
from repro.atomic.database import AtomicDatabase
from repro.atomic.ions import Ion
from repro.constants import K_B_KEV, ME_C2_KEV, SIGMA_KRAMERS_CM2
from repro.physics.ionbalance import ion_density
from repro.physics.rrc import RRCLevelParams, make_level_integrand, rrc_prefactor
from repro.physics.rrc_kernel import rule_rrc
from repro.physics.spectrum import EnergyGrid, Spectrum
from repro.physics.windows import LevelWindows, level_windows
from repro.quadrature.qags import qags
from repro.quadrature.simpson import simpson

__all__ = [
    "GridPoint",
    "level_params_for",
    "ion_emissivity_batched",
    "ion_emissivity_scalar",
    "SerialAPEC",
]

#: Model-level method name -> batch kernel name (compiled plans only
#: exist for the vectorized kernels).
_BATCH_METHOD = {
    "simpson-batch": "simpson",
    "romberg": "romberg",
    "gauss": "gauss",
}

BatchMethod = Literal["simpson", "romberg", "gauss"]
ScalarMethod = Literal["qags", "simpson"]


@dataclass(frozen=True)
class GridPoint:
    """One point of the (temperature, density, time) parameter space."""

    temperature_k: float
    ne_cm3: float
    time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.temperature_k <= 0.0:
            raise ValueError("temperature must be positive")
        if self.ne_cm3 < 0.0:
            raise ValueError("electron density must be non-negative")

    @property
    def kt_kev(self) -> float:
        return K_B_KEV * self.temperature_k


def level_params_for(
    db: AtomicDatabase,
    ion: Ion,
    level_index: int,
    point: GridPoint,
    abundances: AbundanceSet = SOLAR,
) -> RRCLevelParams:
    """Assemble Eq. (1) parameters for one level at one grid point."""
    ls = db.levels(ion)
    return RRCLevelParams(
        binding_kev=float(ls.energy_kev[level_index]),
        n=int(ls.n_arr[level_index]),
        c_eff=float(ls.c_eff[level_index]),
        g_level=float(ls.degeneracy[level_index]),
        kt_kev=point.kt_kev,
        ne_cm3=point.ne_cm3,
        n_ion_cm3=ion_density(
            ion, point.temperature_k, point.ne_cm3, abundances=abundances
        ),
    )


def _flat_constants(ls, point: GridPoint, n_ion: float) -> np.ndarray:
    """Per-level flat constants C_l of the Kramers+Milne collapse.

    integrand_l(E) = C_l * exp(-(E - I_l)/kT) * [gaunt(E / I_l)] * (E >= I_l)
    with C_l = prefactor * (g_l/2) * sigma_K n_l I_l^3 / (2 m_e c^2 c_eff_l^2).
    """
    base = RRCLevelParams(
        binding_kev=float(ls.energy_kev[0]),
        n=int(ls.n_arr[0]),
        c_eff=float(ls.c_eff[0]),
        g_level=float(ls.degeneracy[0]),
        kt_kev=point.kt_kev,
        ne_cm3=point.ne_cm3,
        n_ion_cm3=n_ion,
    )
    pref = rrc_prefactor(base)
    return (
        pref
        * (ls.degeneracy / 2.0)
        * SIGMA_KRAMERS_CM2
        * ls.n_arr
        * ls.energy_kev**3
        / (2.0 * ME_C2_KEV * ls.c_eff**2)
    )


def ion_emissivity_batched(
    db: AtomicDatabase,
    ion: Ion,
    point: GridPoint,
    grid: EnergyGrid,
    method: BatchMethod = "simpson",
    pieces: int = 64,
    k: int = 7,
    gl_points: int = 12,
    gaunt: bool = True,
    abundances: AbundanceSet = SOLAR,
    tail_tol: float = 0.0,
) -> np.ndarray:
    """Per-bin RRC emission of one ion, computed with batch kernels.

    This is the unit of work of a coarse-grained (``Ion``) GPU task.
    ``method`` selects the pluggable kernel — the paper: "a general
    interface of the GPU-accelerated component is developed, so that
    different numerical integration algorithms can be connected to the
    main program on demand".

    ``tail_tol > 0`` enables active-window pruning: each level is only
    evaluated inside its accuracy-budgeted bin window and the result
    differs from the unpruned kernel by at most ``tail_tol`` relative
    tail mass per level.  ``tail_tol = 0`` (default) keeps every bin
    above each level's edge — dense is the windowed launch with
    ``cutoff = n_bins``.  Every rule runs
    :func:`repro.physics.rrc_kernel.rule_rrc`.
    """
    if tail_tol < 0.0:
        raise ValueError("tail_tol must be non-negative")
    order = {"simpson": pieces, "romberg": k, "gauss": gl_points}
    if method not in order:
        raise ValueError(f"unknown batch method {method!r}")
    ls = db.levels(ion)
    if len(ls) == 0:
        return np.zeros(grid.n_bins, dtype=np.float64)
    n_ion = ion_density(
        ion, point.temperature_k, point.ne_cm3, abundances=abundances
    )
    kt = point.kt_kev
    c_l = _flat_constants(ls, point, n_ion)
    win = level_windows(ls.energy_kev, grid, kt, tail_tol, gaunt=gaunt)
    return rule_rrc(
        grid, (method, order[method]), gaunt, ls.energy_kev, win.first,
        win.cutoff[None, :], c_l[None, :], np.array([kt]),
    )[0].values


def ion_emissivity_scalar(
    db: AtomicDatabase,
    ion: Ion,
    point: GridPoint,
    grid: EnergyGrid,
    method: ScalarMethod = "qags",
    pieces: int = 64,
    epsabs: float = 1.0e-30,
    epsrel: float = 1.0e-10,
    gaunt: bool = True,
    abundances: AbundanceSet = SOLAR,
    tail_tol: float = 0.0,
) -> np.ndarray:
    """Per-bin RRC emission of one ion, one scalar integral at a time.

    This is the CPU fallback path of Algorithm 1 (``CPU-Integr`` calling
    QAGS serially) and the reference for accuracy experiments.

    ``tail_tol > 0`` clamps each level's bin loop to its active window
    (same budget as the batched path); ``0`` scans every bin.
    """
    if tail_tol < 0.0:
        raise ValueError("tail_tol must be non-negative")
    ls = db.levels(ion)
    out = np.zeros(grid.n_bins, dtype=np.float64)
    win: LevelWindows | None = None
    if tail_tol > 0.0 and len(ls) > 0:
        win = level_windows(
            ls.energy_kev, grid, point.kt_kev, tail_tol, gaunt=gaunt
        )
    for i in range(len(ls)):
        p = level_params_for(db, ion, i, point, abundances)
        f = make_level_integrand(p, gaunt=gaunt)
        threshold = p.binding_kev
        if win is not None:
            bin_range = range(int(win.first[i]), int(win.cutoff[i]))
        else:
            bin_range = range(grid.n_bins)
        for b in bin_range:
            e0, e1 = float(grid.edges[b]), float(grid.edges[b + 1])
            if e1 <= threshold:
                continue  # entirely below the recombination edge
            # Split at the edge so adaptive quadrature sees a smooth
            # integrand (the kink at E = I is exactly representable).
            lo = max(e0, threshold)
            if method == "qags":
                out[b] += qags(f, lo, e1, epsabs=epsabs, epsrel=epsrel).value
            elif method == "simpson":
                out[b] += simpson(f, lo, e1, pieces=pieces).value
            else:
                raise ValueError(f"unknown scalar method {method!r}")
    return out


class SerialAPEC:
    """The APEC-style calculator: one grid point in, one spectrum out.

    Parameters
    ----------
    db:
        Atomic database (size set by its :class:`AtomicConfig`).
    grid:
        Output energy grid.
    method / pieces / k:
        Integration rule used for every (level, bin) integral.  The
        batch rules (``simpson-batch``, ``romberg``, ``gauss``) execute
        the compiled plan of :mod:`repro.physics.plan` — every level x
        bin of the ion set in one launch, compiled once per
        configuration in :data:`~repro.physics.plan.PLAN_CACHE` and
        reused across grid points.  ``qags`` and scalar ``simpson`` loop
        :func:`ion_emissivity_scalar` over the ions: the accuracy oracle
        (and Algorithm 1's CPU fallback), one scalar integral at a time.
    tail_tol:
        Relative tail tolerance of active-window pruning; ``0`` (the
        default) keeps every bin above each level's edge.
    """

    def __init__(
        self,
        db: AtomicDatabase,
        grid: EnergyGrid,
        method: str = "qags",
        pieces: int = 64,
        k: int = 7,
        gaunt: bool = True,
        components: tuple[str, ...] = ("rrc",),
        abundances: AbundanceSet = SOLAR,
        tail_tol: float = 0.0,
    ) -> None:
        if method not in ("qags", "simpson", "simpson-batch", "romberg", "gauss"):
            raise ValueError(f"unknown method {method!r}")
        unknown = set(components) - {"rrc", "lines", "brems"}
        if unknown:
            raise ValueError(f"unknown components {sorted(unknown)}")
        if not components:
            raise ValueError("need at least one emission component")
        if tail_tol < 0.0:
            raise ValueError("tail_tol must be non-negative")
        self.db = db
        self.grid = grid
        self.method = method
        self.pieces = pieces
        self.k = k
        self.gaunt = gaunt
        self.components = tuple(components)
        self.abundances = abundances
        self.tail_tol = tail_tol

    def _rrc_values(
        self, point: GridPoint, ions: tuple[Ion, ...]
    ) -> np.ndarray:
        """RRC per-bin totals of one grid point over ``ions``."""
        if self.method in _BATCH_METHOD:
            # Imported here: ``import repro`` reaches this module, and the
            # plan layer's hashlib (OpenSSL) costs every process that
            # never computes a spectrum +3 MiB of RSS.
            from repro.physics.plan import PLAN_CACHE

            plan = PLAN_CACHE.get(
                self.db, self.grid, ions=ions,
                method=_BATCH_METHOD[self.method],
                pieces=self.pieces, k=self.k,
                tail_tol=self.tail_tol, gaunt=self.gaunt,
            )
            return plan.execute(point, self.abundances).values
        out = np.zeros(self.grid.n_bins, dtype=np.float64)
        for ion in ions:
            out += ion_emissivity_scalar(
                self.db, ion, point, self.grid,
                method=self.method, pieces=self.pieces, gaunt=self.gaunt,
                abundances=self.abundances, tail_tol=self.tail_tol,
            )
        return out

    def compute(self, point: GridPoint, ions: tuple[Ion, ...] | None = None) -> Spectrum:
        """Full spectrum at one grid point.

        Sums the configured emission components: ``rrc`` (the paper's
        workload), ``lines`` (collisional line emission) and ``brems``
        (free-free continuum).
        """
        spectrum = Spectrum.zeros(
            self.grid,
            temperature_k=point.temperature_k,
            ne_cm3=point.ne_cm3,
            method=self.method,
            components=self.components,
            tail_tol=self.tail_tol,
        )
        ion_set = ions if ions is not None else self.db.ions
        if "rrc" in self.components:
            spectrum.accumulate(self._rrc_values(point, ion_set))
        if "lines" in self.components:
            from repro.physics.lines import ion_line_emissivity

            for ion in ion_set:
                spectrum.accumulate(
                    ion_line_emissivity(
                        self.db, ion, point, self.grid,
                        abundances=self.abundances,
                    )
                )
        if "brems" in self.components:
            from repro.physics.brems import brems_emissivity

            spectrum.accumulate(
                brems_emissivity(
                    self.grid, point, z_max=self.db.config.z_max,
                    abundances=self.abundances,
                )
            )
        return spectrum

