"""Compiled spectrum plans and the cross-request plan cache.

Plans are the one production RRC path: :class:`repro.physics.apec.SerialAPEC`
(every batch rule) and the service payload both execute them.  A per-ion
loop would re-derive the same temperature-independent structure — level
parameters, flat Kramers+Milne constants, active-window searches — for
every ion on every grid point of every request.  A :class:`SpectrumPlan`
compiles that structure *once* per
``(database, grid, ion set, rule, tail_tol, gaunt)``
combination into flat structure-of-arrays form:

- ``energy_kev`` / ``c_base`` — per-level binding energies and the
  temperature-independent part of the flat constant ``C_l``, concatenated
  over all ions (one global "row" index per level);
- ``ion_index`` / ``offsets`` — the level-to-ion indirection used to
  broadcast per-ion prefactors and to split per-ion statistics back out;
- per-ion ``e_min`` — feeds the vectorized per-ion Gaunt tail budget so
  the plan's windows reproduce :func:`repro.physics.windows.level_windows`
  ion by ion, bit for bit.

Executing a plan binds the temperature-dependent pieces (windows for
``kT``, per-ion prefactors) and issues one launch over the fused windows
of every ion instead of one launch per ion:
:func:`repro.physics.rrc_kernel.rule_rrc` (the kernel the per-ion oracle
runs too) over a whole batch of temperatures, whatever the plan's rule.

:class:`PlanCache` content-addresses compiled plans so repeated grid
points, parameter sweeps, and cache-miss service requests reuse them; hit,
miss, compilation and eviction counters are exported through the
Prometheus registry (``SpectrumBroker.registry()``) and, when a
tracer is bound, as instant events on a ``plan-cache`` track.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.atomic.abundances import SOLAR, AbundanceSet
from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.atomic.ions import Ion
from repro.constants import K_B_KEV, ME_C2_KEV, SIGMA_KRAMERS_CM2, maxwellian_norm
from repro.parallel.ranks import POOL
from repro.physics.ionbalance import ion_density
from repro.physics.rrc import gaunt_factor
from repro.physics.rrc_kernel import rule_rrc
from repro.physics.spectrum import EnergyGrid
from repro.physics.windows import GAUNT_SUP
from repro.quadrature.megabatch import MegabatchResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import EventTracer

__all__ = [
    "PLAN_CACHE",
    "PlanCache",
    "PlanCacheStats",
    "PlanKey",
    "SpectrumPlan",
    "db_fingerprint",
    "grid_fingerprint",
    "ions_fingerprint",
]


@lru_cache(maxsize=64)
def _config_fingerprint(config: AtomicConfig) -> str:
    text = f"atomicdb|n_max={config.n_max}|z_max={config.z_max}"
    return hashlib.sha1(text.encode()).hexdigest()


def db_fingerprint(db: AtomicDatabase) -> str:
    """Content address of a synthetic database.

    The database is fully determined by its :class:`AtomicConfig`
    (construction is deterministic), so hashing the size knobs suffices.
    """
    return _config_fingerprint(db.config)


def grid_fingerprint(grid: EnergyGrid) -> str:
    """Content address of an energy grid (exact edge bytes)."""
    return grid.fingerprint


#: ``id(tuple) -> (tuple, fingerprint)`` of the ion tuples last seen.  An
#: entry holds its tuple, so a live id is never another tuple's.  By
#: identity because callers pass the same tuple every time (``db.ions``,
#: a family basis's) and hashing 105 ions costs what the sha1 does.
_IONS_MEMO: OrderedDict[int, tuple[tuple[Ion, ...], str]] = OrderedDict()
_IONS_MEMO_MAX = 64


def ions_fingerprint(ions: Iterable[Ion]) -> str:
    """Content address of an ordered ion subset."""
    seen = _IONS_MEMO.get(id(ions))
    if seen is not None and seen[0] is ions:
        return seen[1]
    text = "|".join(f"{ion.z},{ion.charge}" for ion in ions)
    fingerprint = hashlib.sha1(text.encode()).hexdigest()
    if isinstance(ions, tuple):
        _IONS_MEMO[id(ions)] = (ions, fingerprint)
        while len(_IONS_MEMO) > _IONS_MEMO_MAX:
            _IONS_MEMO.popitem(last=False)
    return fingerprint


@dataclass(frozen=True)
class PlanKey:
    """Content address of one compiled plan.

    Every field that changes the compiled structure or the launch math is
    part of the key; anything temperature-dependent is deliberately *not*
    (plans are reused across grid points and bound at execution time).
    ``order`` is the one knob ``method`` reads: Simpson's ``pieces``,
    Romberg's ``k`` or Gauss's ``gl_points``.
    """

    db: str
    grid: str
    ions: str
    method: str
    order: int
    tail_tol: float
    gaunt: bool


class SpectrumPlan:
    """Temperature-independent compiled form of one fused RRC launch.

    Built by :meth:`PlanCache.get` (or :func:`compile_plan`); execute with
    :meth:`execute` at any grid point.  Immutable after construction apart
    from the small per-``kT`` window memo.
    """

    #: Window sets memoized per plan (parameter sweeps revisit few kTs).
    _WINDOW_MEMO_MAX = 64

    def __init__(
        self,
        key: PlanKey,
        db: AtomicDatabase,
        grid: EnergyGrid,
        ions: tuple[Ion, ...],
    ) -> None:
        self.key = key
        self.grid = grid
        self.ions = ions
        energies: list[np.ndarray] = []
        c_base: list[np.ndarray] = []
        offsets = np.zeros(len(ions) + 1, dtype=np.int64)
        e_min = np.full(len(ions), np.inf)
        for i, ion in enumerate(ions):
            ls = db.levels(ion)
            offsets[i + 1] = offsets[i] + len(ls)
            if len(ls) == 0:
                continue
            energies.append(ls.energy_kev)
            # Temperature-independent factor of the Kramers+Milne flat
            # constant: C_l = prefactor(T) * c_base_l.
            c_base.append(
                (ls.degeneracy / 2.0)
                * SIGMA_KRAMERS_CM2
                * ls.n_arr
                * ls.energy_kev**3
                / (2.0 * ME_C2_KEV * ls.c_eff**2)
            )
            e_min[i] = float(ls.energy_kev.min())
        if energies:
            self.energy_kev = np.concatenate(energies)
            self.c_base = np.concatenate(c_base)
        else:
            self.energy_kev = np.zeros(0)
            self.c_base = np.zeros(0)
        self.offsets = offsets
        self.e_min_ion = e_min
        self.ion_index = np.repeat(
            np.arange(len(ions), dtype=np.int64), np.diff(offsets)
        )
        # The temperature-independent half of a window: where each
        # level's edge falls on the grid, and the tail budget per unit
        # kT.  ``windows(kT)`` adds ``kT * log_tail`` and searches once.
        n_bins = grid.n_bins
        self._first = np.minimum(
            np.searchsorted(grid.upper, self.energy_kev, side="right"), n_bins
        ).astype(np.int64)
        self._log_tail: np.ndarray | None = None
        if key.tail_tol > 0.0 and self.energy_kev.size:
            if key.gaunt:
                # Same double-precision expression sequence as
                # tail_cutoff_kev, vectorized over ions: x_max -> g_inf
                # -> safety -> log(safety / tail_tol), so the windows
                # match level_windows ion by ion, bit for bit.
                with np.errstate(divide="ignore"):
                    x_max = np.maximum(1.0, grid.upper[-1] / e_min)
                safety = GAUNT_SUP / np.minimum(1.0, gaunt_factor(x_max))
            else:
                safety = np.ones(len(ions))
            self._log_tail = np.log(safety / key.tail_tol)[self.ion_index]
            self._log_tail.setflags(write=False)
        self._ion_slots = np.flatnonzero(np.diff(offsets))
        self._ion_starts = offsets[self._ion_slots]
        for arr in (self.energy_kev, self.c_base, self.offsets,
                    self.e_min_ion, self.ion_index, self._first):
            arr.setflags(write=False)
        #: kT -> [first, cutoff, per-ion active pairs (None until asked for)]
        self._window_memo: OrderedDict[float, list] = OrderedDict()
        self._memo_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # What a rank is sent: the compiled arrays, not the memo.
        state = self.__dict__.copy()
        del state["_window_memo"], state["_memo_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._window_memo = OrderedDict()
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        return int(self.energy_kev.size)

    def windows(self, kt_kev: float) -> tuple[np.ndarray, np.ndarray]:
        """Fused per-level ``(first, cutoff)`` windows at one temperature.

        Vectorized over all ions at once, but with the tail budget
        computed *per ion* (the Gaunt safety factor depends on each ion's
        ``x_max = E_grid_max / min(I_l)``), so the result matches running
        :func:`repro.physics.windows.level_windows` ion by ion exactly —
        including the task prices the service cost model derives from it.
        """
        first, cutoff, _ = self._memo_entry(kt_kev)
        return first, cutoff

    def _memo_entry(self, kt_kev: float) -> list:
        """The memo's entry for one temperature, computed on a miss."""
        if kt_kev <= 0.0:
            raise ValueError("kT must be positive")
        kt = float(kt_kev)
        with self._memo_lock:
            cached = self._window_memo.get(kt)
            if cached is not None:
                self._window_memo.move_to_end(kt)
                return cached
        first, cutoff = self._compute_windows(kt)
        first.setflags(write=False)
        cutoff.setflags(write=False)
        entry = [first, cutoff, None]
        with self._memo_lock:
            self._window_memo[kt] = entry
            self._window_memo.move_to_end(kt)
            while len(self._window_memo) > self._WINDOW_MEMO_MAX:
                self._window_memo.popitem(last=False)
        return entry

    def _compute_windows(self, kt: float) -> tuple[np.ndarray, np.ndarray]:
        first = self._first
        n_bins = self.grid.n_bins
        if self._log_tail is None:
            # Pruning off (or no levels): every window runs to the last bin.
            return first, np.full(first.shape, n_bins, dtype=np.int64)
        cutoff = np.searchsorted(
            self.grid.lower, self.energy_kev + kt * self._log_tail, side="left"
        ).astype(np.int64, copy=False)
        np.minimum(cutoff, n_bins, out=cutoff)
        np.maximum(cutoff, first, out=cutoff)
        return first, cutoff

    def per_ion_active(self, kt_kev: float) -> np.ndarray:
        """Active (level, bin) pairs per ion — the pruned task prices
        (read-only: kept in the temperature's window-memo entry, so task
        compilation and attribution weights share one computation)."""
        return self._active_rows((kt_kev,))[0]

    def active_pairs(self, kts_kev: Iterable[float]) -> np.ndarray:
        """:meth:`per_ion_active` of every temperature of a group, shape
        ``(len(kts), n_ions)``."""
        return np.array(self._active_rows(kts_kev))

    def _active_rows(self, kts_kev: Iterable[float]) -> list[np.ndarray]:
        """The memo's per-ion active counts for these temperatures,
        reducing every row still missing in one pass."""
        entries = [self._memo_entry(kt) for kt in kts_kev]
        missing = [e for e in entries if e[2] is None]
        if missing:
            counts = np.array([e[1] for e in missing]) - self._first
            active = np.zeros((len(missing), len(self.ions)), dtype=np.int64)
            # reduceat sums level runs between consecutive starts, so an
            # ion with no levels is left out of them (and stays 0).
            active[:, self._ion_slots] = np.add.reduceat(
                counts, self._ion_starts, axis=1
            )
            active.setflags(write=False)
            for entry, row in zip(missing, active):
                entry[2] = row
        return [e[2] for e in entries]

    def flat_constants(
        self, point: "GridPointLike", abundances: AbundanceSet = SOLAR
    ) -> np.ndarray:
        """Per-level flat constants C_l at one grid point (all ions)."""
        kt = point.kt_kev
        ne = point.ne_cm3
        norm = maxwellian_norm(kt / K_B_KEV)
        pref = np.empty(len(self.ions))
        for i, ion in enumerate(self.ions):
            n_ion = ion_density(
                ion, point.temperature_k, ne, abundances=abundances
            )
            pref[i] = ne * n_ion * 4.0 * norm / kt
        return pref[self.ion_index] * self.c_base

    def execute(
        self, point: "GridPointLike", abundances: AbundanceSet = SOLAR
    ) -> MegabatchResult:
        """One fused launch: the grid point's full RRC spectrum + stats."""
        return self.execute_many([point], abundances)[0]

    def execute_many(
        self,
        points: Iterable["GridPointLike"],
        abundances: AbundanceSet = SOLAR,
    ) -> list[MegabatchResult]:
        """Execute the plan at N grid points with shared launch setup.

        Row ``j`` is bit-identical to ``execute(points[j])`` for any
        batch composition and order, and a bin's value to the same bin of
        any contiguous run of bins (:mod:`repro.physics.rrc_kernel`), so
        either axis is free to be cut.  The call goes to
        :data:`repro.parallel.ranks.POOL`, priced by in-window pairs: cut
        on the points when there are at least as many as the pool would
        make slices, else on the bins of every point — or, on a host, a
        caller or a call it is not worth it for, run here in one piece.
        """
        points = list(points)
        if not points:
            return []
        work = [
            int((cutoff - first).sum())
            for first, cutoff in (self.windows(float(p.kt_kev)) for p in points)
        ]
        if len(points) >= POOL.width(sum(work)):
            return POOL.gather(self._execute_slice, points, work, abundances)
        launch, n_bins = self._launch(points, abundances), self.grid.n_bins
        marks = len(points) * np.bincount(launch[4], minlength=n_bins + 1)
        marks -= np.bincount(launch[5].ravel(), minlength=n_bins + 1)
        rows = POOL.gather(_bin_rows, range(n_bins), np.cumsum(marks[:-1]).tolist(), *launch)
        stats = rule_rrc(*launch, bins=range(0))  # no bin, the whole windows' counts
        return [replace(s, values=v) for s, v in zip(stats, np.ascontiguousarray(rows.T))]

    def _launch(self, points: list["GridPointLike"], abundances: AbundanceSet) -> tuple:
        """:func:`repro.physics.rrc_kernel.rule_rrc`'s arguments for these
        points: every level, the windows and flat constants per point."""
        kts = np.array([float(point.kt_kev) for point in points])
        cutoffs = np.stack([self.windows(kt)[1] for kt in kts])
        c_l = np.stack([self.flat_constants(p, abundances) for p in points])
        rule = (self.key.method, self.key.order)
        return self.grid, rule, self.key.gaunt, self.energy_kev, self._first, cutoffs, c_l, kts

    def _execute_slice(
        self, points: list["GridPointLike"], abundances: AbundanceSet
    ) -> list[MegabatchResult]:
        """The launch itself, in whichever process holds the slice:
        :func:`repro.physics.rrc_kernel.rule_rrc` over the whole
        temperature axis, each level block's temperature-independent
        factors evaluated once per batch."""
        return rule_rrc(*self._launch(points, abundances))


def _bin_rows(bins: range, *launch: object) -> np.ndarray:
    """``rule_rrc(*launch)`` on ``bins``, one row per bin holding every
    temperature's value: the bin axis as the rank pool cuts and joins it."""
    return np.stack([result.values for result in rule_rrc(*launch, bins=bins)], axis=1)


class GridPointLike:
    """Structural protocol of :class:`repro.physics.apec.GridPoint`."""

    temperature_k: float
    ne_cm3: float
    kt_kev: float


@dataclass
class PlanCacheStats:
    """Monotonic counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    compilations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compilations": self.compilations,
            "evictions": self.evictions,
        }


class PlanCache:
    """Thread-safe LRU cache of compiled :class:`SpectrumPlan` objects.

    Plans are content-addressed by :class:`PlanKey`; a second request
    with the same database, grid, ion set and rule knobs performs zero
    compilations regardless of temperature (the temperature-dependent
    pieces bind at execution time).
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = PlanCacheStats()
        self._plans: OrderedDict[PlanKey, SpectrumPlan] = OrderedDict()
        self._lock = threading.RLock()
        self._tracer: "EventTracer | None" = None

    def bind_tracer(self, tracer: "EventTracer | None") -> None:
        """Route hit/miss/compile instants to a tracer (or unbind)."""
        self._tracer = tracer

    def _instant(self, name: str, parent: int = 0, **args: object) -> None:
        # The track is interned lazily on the first event so traces that
        # never consult the plan cache are unchanged by the binding.
        if self._tracer is not None:
            track = self._tracer.track("service", "plan-cache")
            self._tracer.instant(
                track, name, cat="plan", args=dict(args), parent=parent or None
            )

    def make_key(
        self,
        db: AtomicDatabase,
        grid: EnergyGrid,
        ions: tuple[Ion, ...] | None = None,
        method: str = "simpson",
        pieces: int = 64,
        k: int = 7,
        gl_points: int = 12,
        tail_tol: float = 0.0,
        gaunt: bool = True,
    ) -> tuple[PlanKey, tuple[Ion, ...]]:
        order = {"simpson": pieces, "romberg": k, "gauss": gl_points}
        if method not in order:
            raise ValueError(f"unknown plan method {method!r}")
        if tail_tol < 0.0:
            raise ValueError("tail_tol must be non-negative")
        ion_set = tuple(ions) if ions is not None else db.ions
        key = PlanKey(
            db=db_fingerprint(db),
            grid=grid_fingerprint(grid),
            ions=ions_fingerprint(ion_set),
            method=method,
            order=int(order[method]),
            tail_tol=float(tail_tol),
            gaunt=bool(gaunt),
        )
        return key, ion_set

    def get(
        self,
        db: AtomicDatabase,
        grid: EnergyGrid,
        ions: tuple[Ion, ...] | None = None,
        method: str = "simpson",
        pieces: int = 64,
        k: int = 7,
        gl_points: int = 12,
        tail_tol: float = 0.0,
        gaunt: bool = True,
        trace_parent: int = 0,
    ) -> SpectrumPlan:
        """The compiled plan for these inputs, compiling on first use.

        ``trace_parent`` links the cache instants (and a compile, when
        one happens) to the causing span — the request or megabatch
        group whose lowering consulted the plan.
        """
        key, ion_set = self.make_key(
            db, grid, ions, method, pieces, k, gl_points, tail_tol, gaunt
        )
        return self.lookup(key, db, grid, ion_set, trace_parent)

    def lookup(
        self,
        key: PlanKey,
        db: AtomicDatabase,
        grid: EnergyGrid,
        ions: tuple[Ion, ...],
        trace_parent: int = 0,
    ) -> SpectrumPlan:
        """:meth:`get` for a caller that kept the :class:`PlanKey` it
        got from :meth:`make_key` for these inputs: one dict hit, booked
        and traced like any other."""
        method = key.method
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.stats.hits += 1
                self._plans.move_to_end(key)
                self._instant("plan-hit", parent=trace_parent, method=method)
                return plan
            self.stats.misses += 1
            self._instant("plan-miss", parent=trace_parent, method=method)
        # Compile outside the lock: a concurrent duplicate costs repeated
        # work, never an inconsistent cache (last writer wins).
        plan = SpectrumPlan(key, db, grid, ions)
        with self._lock:
            self.stats.compilations += 1
            self._instant(
                "plan-compile",
                parent=trace_parent,
                method=method,
                levels=plan.n_levels,
            )
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.stats.evictions += 1
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: Process-global plan cache shared by the model layer and the service
#: cost model.
PLAN_CACHE = PlanCache()
