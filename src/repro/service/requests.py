"""Typed spectrum requests and their canonical content address.

A :class:`SpectrumRequest` names one unit of service work: a
parameter-space grid point (temperature, density), an ion subset, a
binning, a quadrature rule, and a tolerance.  Two requests that would
produce the same spectrum hash to the same :meth:`~SpectrumRequest.key`,
which is what the cache and the coalescer address by.

:func:`compile_tasks` and :func:`compile_group_tasks` lower a request or
a same-family group to one Ion-granularity task per ion in scope,
stamped from the family's :class:`FamilyPlan`.  The broker dispatches
them cost-only and evaluates the spectra through :func:`family_spectra`;
tasks compiled ``with_payload`` accumulate the same bits in simulation.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.atomic.ions import Ion
from repro.constants import K_B_KEV, RYDBERG_KEV
from repro.core.task import Task, TaskKind, task_cost
from repro.physics.plan import PLAN_CACHE, PlanCache, PlanKey
from repro.physics.spectrum import EnergyGrid

__all__ = [
    "FamilyBasis",
    "FamilyPlan",
    "SpectrumRequest",
    "compile_group_tasks",
    "compile_tasks",
    "emission_block",
    "family_plan",
    "family_spectra",
    "ion_emission",
    "request_grid",
    "request_spectrum",
]

_RULES = ("simpson", "romberg")

#: Spectral window of the service (the paper's Fig. 7 axis).
LAMBDA_MIN_A = 10.0
LAMBDA_MAX_A = 45.0

#: Emission lines modelled per ion — caps the synthetic numerics at
#: O(lines x bins) so a service batch stays cheap.
MAX_LINES_PER_ION = 8

#: Largest line stack or shared block the payload evaluates at once.
#: Kept below glibc's 128 KiB mmap threshold on purpose: freeing one
#: mmapped block raises the allocator's mmap and trim thresholds for the
#: rest of the process (+1.3 MiB peak RSS with 512 KiB tiles).
BLOCK_TILE_BYTES = 96 << 10

#: Family plans kept resident; a service sees one or two families.
_FAMILY_CACHE_SIZE = 8


@dataclass(frozen=True)
class SpectrumRequest:
    """One client request for a spectrum at one grid point.

    Attributes
    ----------
    temperature_k, ne_cm3:
        The parameter-space grid point.
    z_max:
        Ion subset: every ion with atomic number <= ``z_max``.
    n_bins:
        Spectral bins across the 10-45 Angstrom window.
    rule:
        Quadrature rule priced on the GPU path ("simpson" | "romberg").
    tolerance:
        Requested relative accuracy; sets the rule's refinement depth.
    tail_tol:
        Relative tail tolerance for active-window pruning
        (:mod:`repro.physics.windows`); ``0`` disables pruning.  Part of
        the content address — a pruned and an unpruned spectrum must
        never share a cache entry.
    accuracy:
        Declared peak-relative error budget for approximate serving
        (:mod:`repro.approx`); ``0`` (the default) demands the exact
        path.  Positive budgets join the content address — an
        interpolated and an exact spectrum must never share a cache
        entry — while ``0`` renders exactly as before, keeping legacy
        keys stable.
    """

    temperature_k: float
    ne_cm3: float = 1.0
    z_max: int = 8
    n_bins: int = 64
    rule: str = "simpson"
    tolerance: float = 1.0e-6
    tail_tol: float = 0.0
    accuracy: float = 0.0

    def __post_init__(self) -> None:
        # Chained so NaN (every comparison false) and inf are refused too.
        if not 0.0 < self.temperature_k < math.inf:
            raise ValueError("temperature must be positive and finite")
        if not 0.0 < self.ne_cm3 < math.inf:
            raise ValueError("density must be positive and finite")
        if self.z_max < 1:
            raise ValueError("z_max must be >= 1")
        if self.n_bins < 1:
            raise ValueError("need at least one bin")
        if self.rule not in _RULES:
            raise ValueError(f"unknown rule {self.rule!r}; expected {_RULES}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not 0.0 <= self.tail_tol < math.inf:
            raise ValueError("tail tolerance must be non-negative and finite")
        if not 0.0 <= self.accuracy < math.inf:
            raise ValueError("accuracy budget must be non-negative and finite")

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical text form: equal requests render identically.

        The ``acc=`` field appears only for positive budgets, so every
        pre-accuracy request renders (and hashes) exactly as it always
        has — ``accuracy=0`` is bit-compatible with history.
        """
        text = "T=%.9e|ne=%.9e|z=%s|bins=%s|rule=%s|tol=%.3e|tt=%.3e" % (
            self.temperature_k, self.ne_cm3, self.z_max, self.n_bins, self.rule,
            self.tolerance, self.tail_tol,
        )
        if self.accuracy > 0.0:
            text += "|acc=%.3e" % self.accuracy
        return text

    @property
    def key(self) -> str:
        """Content address: sha1 of the canonical form."""
        return hashlib.sha1(self.canonical().encode("ascii")).hexdigest()

    def family_canonical(self) -> str:
        """Canonical form of the request *family*: everything but the
        temperature and the accuracy budget.  One family maps to one
        lattice in :class:`repro.approx.store.LatticeStore` — the
        lattice spans the temperature axis, and budgets are evaluated
        per request against its certificates.  Rendered once a request:
        the lattice tier reads it for the family key and again for the
        fingerprint memo."""
        return self._family

    @cached_property
    def _family(self) -> str:
        return "|".join(
            (
                f"ne={self.ne_cm3:.9e}",
                f"z={self.z_max}",
                f"bins={self.n_bins}",
                f"rule={self.rule}",
                f"tol={self.tolerance:.3e}",
                f"tt={self.tail_tol:.3e}",
            )
        )

    @property
    def family_key(self) -> str:
        """Content address of the request family (lattice lookup key)."""
        return hashlib.sha1(self.family_canonical().encode("ascii")).hexdigest()

    # ------------------------------------------------------------------
    # Quadrature pricing
    # ------------------------------------------------------------------
    @property
    def evals_per_integral(self) -> int:
        """Integrand evaluations per bin integral implied by the rule.

        Tighter tolerances buy more refinement: Simpson doubles its piece
        count per decade below 1e-4; Romberg deepens its extrapolation
        table by one level per decade.  Both mappings are deterministic,
        so tolerance is part of the content address *and* of the price.
        """
        decades = max(0, int(round(-np.log10(self.tolerance))))
        if self.rule == "simpson":
            pieces = min(512, 16 * 2 ** max(0, decades - 4))
            return pieces + 1
        k = min(13, max(5, decades + 1))
        return 2**k + 1


@lru_cache(maxsize=32)
def _grid_for_bins(n_bins: int) -> EnergyGrid:
    return EnergyGrid.from_wavelength(LAMBDA_MIN_A, LAMBDA_MAX_A, n_bins)


def request_grid(request: SpectrumRequest) -> EnergyGrid:
    """The energy grid a request's spectrum is accumulated on.

    Memoized per ``n_bins``: an :class:`EnergyGrid` is frozen and its
    edges are read-only, so every caller can share one instance.
    """
    return _grid_for_bins(request.n_bins)


def ion_emission(
    ion: Ion, n_levels: int, request: SpectrumRequest, grid: EnergyGrid | None = None
) -> np.ndarray:
    """Deterministic per-ion emission on the request's grid.

    A cheap vectorized stand-in for the full RRC integration — a
    recombination-continuum-shaped exponential plus a hydrogenic line
    ladder — that defines the service payload, so spectra accumulated
    through the scheduler are reproducible and byte-sized for the cache.
    (The physics-grade path stays :class:`repro.physics.apec.SerialAPEC`;
    the service models the workload's data flow, not its opacity tables.)

    This is the scalar *oracle* the payload kernel's rows equal bit for
    bit.
    """
    grid = grid or request_grid(request)
    e = grid.centers
    kt = K_B_KEV * request.temperature_k
    charge = ion.charge
    # Continuum: Kramers-flavoured edge at the ground-state binding energy.
    e_bind = RYDBERG_KEV * charge**2
    cont = np.where(e >= min(e_bind, e[-1] * 0.999), 0.0, np.exp(-e / kt))
    cont *= ion.z / (1.0 + charge)
    # Line ladder: the first few hydrogenic transitions n -> 1.
    out = cont
    width = max(2.0 * float(np.mean(grid.widths)), 1e-4)
    for n in range(2, 2 + min(n_levels, MAX_LINES_PER_ION)):
        e_line = e_bind * (1.0 - 1.0 / n**2)
        if not e[0] <= e_line <= e[-1]:
            continue
        strength = np.exp(-e_line / kt) / n**3
        out = out + strength * np.exp(-0.5 * ((e - e_line) / width) ** 2)
    return out * request.ne_cm3


@dataclass(frozen=True, eq=False)
class FamilyBasis:
    """Everything about a request family that no temperature changes.

    One basis serves every request with the same database scope,
    ``z_max`` and ``n_bins``: the grid, ion tuple, names and level counts
    :func:`compile_tasks` stamps from, and the grid-only factors of
    :func:`ion_emission` for the **emitting ions** only — those with a
    nonzero continuum row or a line inside the window (10 of 36 at
    ``z_max`` 8, 55 of 105 at 14, none at one bin).  Every other ion's
    row is ``+0.0`` at any temperature, so the payload skips it.
    """

    grid: EnergyGrid
    ions: tuple[Ion, ...]
    names: tuple[str, ...]
    n_levels: tuple[int, ...]
    #: Indices into ``ions`` of the emitting ions, ascending.
    emitting: np.ndarray
    #: ``-E`` at the bin centres, shape ``(n_bins,)``.
    neg_centers: np.ndarray
    #: Continuum mask x ``z / (1 + charge)``, shape ``(n_emitting, n_bins)``.
    continuum: np.ndarray
    #: ``-E_line`` per line slot ``n = 2 + k``, ``(n_lines, n_emitting)``;
    #: 0 where the ion has no such line inside the window.
    neg_line_e: np.ndarray
    #: ``n**3`` per line slot, shape ``(n_lines, 1, 1)``.
    n_cubed: np.ndarray
    #: Gaussian line profiles, ``(n_lines, n_emitting, n_bins)``; all
    #: zero where the ion has no such line.
    profiles: np.ndarray

    @classmethod
    def build(cls, db: AtomicDatabase, z_max: int, n_bins: int) -> "FamilyBasis":
        """Compute the basis (uncached; :func:`family_plan` keeps it)."""
        grid = _grid_for_bins(n_bins)
        ions = tuple(ion for ion in db.ions if ion.z <= z_max)
        n_levels = tuple(db.n_levels(ion) for ion in ions)
        e = grid.centers
        width = max(2.0 * float(np.mean(grid.widths)), 1e-4)

        # Per-ion scalars, computed with the oracle's own Python-float
        # expressions so the arrays below start from identical bits.
        continuum = np.empty((len(ions), n_bins), dtype=np.float64)
        # 0 marks "no such line": a real line energy is >= 0.75 e_bind > 0.
        line_e = np.zeros((MAX_LINES_PER_ION, len(ions)), dtype=np.float64)
        for i, (ion, levels) in enumerate(zip(ions, n_levels)):
            e_bind = RYDBERG_KEV * ion.charge**2
            continuum[i] = np.where(
                e >= min(e_bind, e[-1] * 0.999), 0.0, ion.z / (1.0 + ion.charge)
            )
            for k in range(min(levels, MAX_LINES_PER_ION)):
                e_line = e_bind * (1.0 - 1.0 / (2 + k) ** 2)
                if e[0] <= e_line <= e[-1]:
                    line_e[k, i] = e_line
        emitting = np.flatnonzero(continuum.any(axis=1) | line_e.any(axis=0))
        continuum, line_e = continuum[emitting], line_e[:, emitting]

        # Trailing slots no ion fills cost a pass each for nothing.
        used = np.flatnonzero(line_e.any(axis=1))
        n_lines = int(used[-1]) + 1 if used.size else 0
        line_e = line_e[:n_lines]
        profiles = np.exp(-0.5 * ((e - line_e[:, :, None]) / width) ** 2)
        # An absent line must add exactly +0.0 to the non-negative running
        # sum: a zero profile does that whatever the slot's strength.
        profiles[line_e == 0.0] = 0.0
        n_cubed = (np.arange(2, 2 + n_lines) ** 3).reshape(-1, 1, 1).astype(np.float64)

        arrays = (emitting, -e, continuum, -line_e, n_cubed, profiles)
        for arr in arrays:
            arr.setflags(write=False)
        return cls(grid, ions, tuple(ion.name for ion in ions), n_levels, *arrays)


def _plan_rule_knobs(request: SpectrumRequest) -> tuple[int, int]:
    """(pieces, k) implied by the request's rule + tolerance pricing."""
    evals = request.evals_per_integral
    if request.rule == "simpson":
        return evals - 1, 7
    return 64, (evals - 1).bit_length() - 1


@dataclass(frozen=True, eq=False)
class FamilyPlan:
    """Everything about lowering a request that no grid point changes.

    One plan serves every request with the same database scope,
    ``z_max``, ``n_bins``, ``rule``, ``tolerance`` and ``tail_tol``: a
    request contributes its ``(kT, ne)``, a point index and a trace id,
    and :func:`compile_tasks` / :func:`compile_group_tasks` stamp its
    tasks from the per-ion template kept here.  The template is priced
    once per family, every ion at once, by :func:`~repro.core.task.task_cost`.
    """

    basis: FamilyBasis
    rule: str
    evals_per_integral: int
    #: Content address of the family's :class:`SpectrumPlan` — asked of
    #: the :class:`PlanCache` on every use, so hits, evictions and
    #: ``clear()`` behave as for any other caller.  ``None`` with
    #: pruning off: dense prices need no windows.
    plan_key: PlanKey | None
    #: Per ion, at width 1: parameter upload and dense ``levels x bins``.
    bytes_in: tuple[int, ...]
    dense: np.ndarray
    #: Result bytes of one temperature's row.
    bytes_out: int

    @classmethod
    def build(
        cls,
        db: AtomicDatabase,
        request: SpectrumRequest,
        basis: FamilyBasis | None = None,
    ) -> "FamilyPlan":
        """Compute the plan (uncached; :func:`family_plan` memoizes it)."""
        if request.z_max > db.config.z_max:
            raise ValueError(
                f"request z_max={request.z_max} exceeds database "
                f"z_max={db.config.z_max}"
            )
        if basis is None:
            basis = FamilyBasis.build(db, request.z_max, request.n_bins)
        evals = request.evals_per_integral
        plan_key = None
        if request.tail_tol > 0.0:
            pieces, k = _plan_rule_knobs(request)
            plan_key, _ = PLAN_CACHE.make_key(
                db, basis.grid, ions=basis.ions, method=request.rule,
                pieces=pieces, k=k, tail_tol=request.tail_tol, gaunt=True,
            )
        cost = task_cost(
            np.array(basis.n_levels, dtype=np.int64), request.n_bins, evals
        )
        dense = cost["n_integrals"]
        dense.setflags(write=False)
        return cls(
            basis, request.rule, evals, plan_key,
            tuple(cost["bytes_in"].tolist()), dense, cost["bytes_out"],
        )

    def active_pairs(
        self,
        group: Sequence[SpectrumRequest],
        db: AtomicDatabase,
        plan_cache: PlanCache,
        trace_parent: int = 0,
    ) -> np.ndarray | None:
        """Active (level, bin) pairs per member and ion, ``(W, n_ions)``
        — task prices are its column sums, attribution weights its row
        sums — or ``None`` with pruning off.  Windows are memoized per
        ``kT`` on the shared plan, so the second asker of a batch
        computes none.
        """
        if self.plan_key is None:
            return None
        plan = plan_cache.lookup(
            self.plan_key, db, self.basis.grid, self.basis.ions, trace_parent
        )
        return plan.active_pairs([K_B_KEV * r.temperature_k for r in group])


_FAMILIES: "OrderedDict[tuple, FamilyPlan]" = OrderedDict()
_FAMILIES_LOCK = threading.Lock()


def family_plan(db: AtomicDatabase, request: SpectrumRequest) -> FamilyPlan:
    """The cached :class:`FamilyPlan` of the request's family.

    A small LRU, locked like the :class:`PlanCache` it sits beside: a
    basis holds ``n_lines x n_ions x n_bins`` profile values, so only a
    handful of families stay resident.  Families that differ only in
    rule or tolerances share one basis.
    """
    scope = (db.config, request.z_max, request.n_bins)
    key = scope + (request.rule, request.tolerance, request.tail_tol)
    with _FAMILIES_LOCK:
        plan = _FAMILIES.get(key)
        if plan is not None:
            _FAMILIES.move_to_end(key)
            return plan
        basis = next(
            (p.basis for k, p in _FAMILIES.items() if k[:3] == scope), None
        )
    plan = FamilyPlan.build(db, request, basis)
    with _FAMILIES_LOCK:
        _FAMILIES[key] = plan
        while len(_FAMILIES) > _FAMILY_CACHE_SIZE:
            _FAMILIES.popitem(last=False)
    return plan


def _emitting_tiles(
    basis: FamilyBasis, requests: Sequence[SpectrumRequest], lo: int, hi: int
):
    """The payload kernel: rows ``(W, len(run), n_bins)`` of the emitting
    ions ``lo:hi``, yielded as ``(temperatures, run, rows)`` tiles, each
    row bit-identical to its :func:`ion_emission`.  A tile's continuum
    and line terms fill one C-contiguous ``(n_lines + 1, W, run, n_bins)``
    stack of at most :data:`BLOCK_TILE_BYTES`, folded by one
    ``np.add.reduce`` over its outer axis — whole rows in order, the
    oracle's continuum-then-lines sum (an absent line adds ``+0.0``) —
    then scaled by density.  Per-temperature factors are evaluated once
    per chunk of tiles, under a quarter tile.
    """
    n_bins, n_lines = basis.grid.n_bins, len(basis.profiles)
    cap = max(1, BLOCK_TILE_BYTES // (8 * (1 + n_lines) * n_bins))
    run = max(1, min(hi - lo, cap))
    tile = max(1, cap // run)
    per_temp = 32 * (n_bins + n_lines * len(basis.emitting))
    chunk = tile * max(1, BLOCK_TILE_BYTES // (per_temp * tile))
    for c in range(0, len(requests), chunk):
        part = requests[c : c + chunk]
        kt = np.array([K_B_KEV * r.temperature_k for r in part])
        cont = np.exp(basis.neg_centers / kt[:, None])[:, None, :]
        strength = np.exp(basis.neg_line_e[:, None, :] / kt[:, None]) / basis.n_cubed
        ne = np.array([r.ne_cm3 for r in part])[:, None, None]
        for start in range(0, len(part), tile):
            temps = slice(start, start + tile)
            w = len(ne[temps])
            for first in range(lo, hi, run):
                ions = slice(first, min(first + run, hi))
                stack = np.empty((1 + n_lines, w, ions.stop - first, n_bins))
                np.multiply(cont[temps], basis.continuum[ions], out=stack[0])
                lines = strength[:, temps, ions, None]
                np.multiply(lines, basis.profiles[:, None, ions], out=stack[1:])
                rows = np.add.reduce(stack, axis=0)
                rows *= ne[temps]
                yield slice(c + start, c + start + w), ions, rows


def emission_block(
    basis: FamilyBasis,
    requests: Sequence[SpectrumRequest],
    ions: slice = slice(None),
) -> np.ndarray:
    """Per-ion emission of every request at once: ``(W, n_ions, n_bins)``.

    ``requests`` must belong to the basis's family; ``ions`` restricts
    the block to a run of the basis's ions.  Block ``[j, i]`` is
    bit-identical to ``ion_emission(basis.ions[i], basis.n_levels[i],
    requests[j])``: zeros with the emitting ions' rows scattered in.
    """
    start, stop, _ = ions.indices(len(basis.ions))
    lo, hi = np.searchsorted(basis.emitting, (start, stop)).tolist()
    block = np.zeros((len(requests), stop - start, basis.grid.n_bins))
    for temps, run, rows in _emitting_tiles(basis, requests, lo, hi):
        block[temps, basis.emitting[run] - start] = rows
    return block


class _SharedBlock:
    """The emission block shared by the task closures of one request or
    group, evaluated lazily in runs of ions no larger than
    :data:`BLOCK_TILE_BYTES`.  A run is dropped once all of its rows have
    been handed out, so a group holds about one run at a time; a row
    asked for again (a task re-run) re-evaluates its run, same bits.
    """

    __slots__ = ("_basis", "_requests", "_members", "_run", "_live")

    def __init__(
        self,
        basis: FamilyBasis,
        requests: tuple[SpectrumRequest, ...],
        stacked: bool,
    ) -> None:
        self._basis = basis
        self._requests = requests
        #: Which members a task's rows cover: all of a group's, stacked
        #: ``(W, n_bins)``, or a lone request's one row, ``(n_bins,)``.
        self._members = slice(None) if stacked else 0
        self._run = max(
            1, BLOCK_TILE_BYTES // (8 * len(requests) * basis.grid.n_bins)
        )
        #: run start -> [block, rows not yet handed out]
        self._live: dict[int, list] = {}

    def rows(self, i: int) -> np.ndarray:
        """Ion ``i``'s rows (a view the caller must not keep)."""
        start = i - i % self._run
        entry = self._live.get(start)
        if entry is None:
            stop = min(start + self._run, len(self._basis.ions))
            block = emission_block(self._basis, self._requests, slice(start, stop))
            entry = self._live[start] = [block, stop - start]
        rows = entry[0][self._members, i - start]
        entry[1] -= 1
        if entry[1] == 0:
            del self._live[start]
        return rows


@lru_cache(maxsize=8)
def _payload_db(n_max: int, z_max: int) -> AtomicDatabase:
    """The database a payload's ``(n_max, z_max)`` scope names, built once."""
    return AtomicDatabase(AtomicConfig(n_max=n_max, z_max=z_max))


def request_spectrum(payload: tuple[SpectrumRequest, int, int]) -> np.ndarray:
    """Full spectrum of one request: :func:`family_spectra` of it alone.
    ``payload`` is ``(request, db n_max, db z_max)``, plain values."""
    request, n_max, z_max = payload
    return family_spectra(((request,), n_max, z_max))[0]


def family_spectra(
    payload: tuple[tuple[SpectrumRequest, ...], int, int]
) -> np.ndarray:
    """Stacked spectra of one same-family request group, ion-major.

    ``payload`` is ``(requests, db n_max, db z_max)``, like
    :func:`request_spectrum`'s; every member must share the lead's
    ``z_max`` and ``n_bins``.  Returns shape ``(len(requests), n_bins)``.

    Row ``j`` is the ion-order left fold of ``ion_emission`` over the
    emitting ions — the other rows are ``+0.0``, which adds nothing to
    a non-negative sum — so it is bit-identical to unbatched and
    in-simulation accumulation.  ``np.add.reduce(rows, axis=1, out=...)``
    folds a run: over two or more bins NumPy adds whole rows in order; a
    lone bin, which it would sum pairwise, takes ``np.add.accumulate``.
    Temperatures and runs of emitting ions are tiled
    (:func:`_emitting_tiles`); a later run continues the fold from its
    first row.
    """
    requests, n_max, z_max = payload
    if not requests:
        return np.zeros((0, 0), dtype=np.float64)
    lead = requests[0]
    for field in ("z_max", "n_bins"):
        if any(getattr(r, field) != getattr(lead, field) for r in requests):
            raise ValueError(f"family_spectra: members differ in {field}")
    basis = family_plan(_payload_db(n_max, z_max), lead).basis
    out = np.zeros((len(requests), lead.n_bins), dtype=np.float64)
    for temps, run, rows in _emitting_tiles(basis, requests, 0, len(basis.emitting)):
        dest = out[temps]
        if run.start:
            rows[:, 0] += dest
        if lead.n_bins > 1:
            np.add.reduce(rows, axis=1, out=dest)
        else:
            dest[...] = np.add.accumulate(rows, axis=1)[:, -1]
    return out


def compile_tasks(
    request: SpectrumRequest,
    db: AtomicDatabase,
    point_index: int = 0,
    task_id_base: int = 0,
    with_payload: bool = True,
    plan_cache: PlanCache = PLAN_CACHE,
    trace_parent: int = 0,
    weights: list[float] | None = None,
) -> list[Task]:
    """Lower one request to Ion-granularity tasks for the hybrid runner.

    :func:`compile_group_tasks` of the request alone, apart from the
    labels (``req{p}/{ion}``) and the payload's shape: a task returns
    its ion's one ``(n_bins,)`` row.

    Every task carries the same execute callable on both the GPU and the
    CPU-fallback path — placement decides the *price*, never the
    *answer*.  ``with_payload=False`` compiles *cost-only* tasks
    (identical prices, no execute callables), which is what the broker
    dispatches: it evaluates :func:`family_spectra` out of band.
    """
    return _stamp_tasks(
        (request,), db, False, point_index, task_id_base, with_payload,
        plan_cache, False, trace_parent, weights,
    )


def compile_group_tasks(
    requests: tuple[SpectrumRequest, ...],
    db: AtomicDatabase,
    point_index: int = 0,
    task_id_base: int = 0,
    with_payload: bool = True,
    plan_cache: PlanCache = PLAN_CACHE,
    spread: bool = False,
    trace_parent: int = 0,
    weights: list[float] | None = None,
) -> list[Task]:
    """Lower a same-family request group to megabatched ion tasks.

    One task per ion covers *all* temperatures of the group, returning a
    stacked ``(width, n_bins)`` payload whose row ``j`` is bit-identical
    to the single-request task for ``requests[j]``.  It is priced as the
    fused launch it models: the parameter upload (``bytes_in``) is paid
    once, while the output, the dense bound and the active-pair count
    (from the shared plan's windows) scale with the batch width.

    ``spread=True`` gives task ``i`` point index ``point_index + i`` —
    one point per ion task — so the hybrid runner's per-point rank
    partition spreads the group's host prep across every rank instead
    of serializing the whole group on ``point_index % n_workers``.  A
    caller that runs such tasks ``with_payload`` owns the ion-order fold
    of the per-task blocks (the runner's per-point accumulation
    degenerates to identity).
    """
    group = tuple(requests)
    if not group:
        return []
    family = group[0].family_canonical()
    if any(r.family_canonical() != family for r in group[1:]):
        raise ValueError("megabatch group must share one request family")
    return _stamp_tasks(
        group, db, True, point_index, task_id_base, with_payload,
        plan_cache, spread, trace_parent, weights,
    )


def _stamp_tasks(
    group: tuple[SpectrumRequest, ...],
    db: AtomicDatabase,
    grouped: bool,
    point_index: int,
    task_id_base: int,
    with_payload: bool,
    plan_cache: PlanCache,
    spread: bool,
    trace_parent: int,
    weights: list[float] | None,
) -> list[Task]:
    """The one lowering loop: the group's tasks stamped from its
    family's template.  ``grouped`` picks the label and payload shape of
    :func:`compile_group_tasks` over :func:`compile_tasks`'s.  A
    ``weights`` list is extended with the members' fair-share weights
    (:func:`_member_weights`), read off the matrix the tasks are priced
    from: a traced compile asks the plan cache once per group.

    Its inputs are checked here once a call (ids, active pairs); the
    records it stamps check nothing."""
    if task_id_base < 0:
        raise ValueError("task_id must be non-negative")
    family = family_plan(db, group[0])
    width = len(group)
    evals = family.evals_per_integral
    dense = family.dense * width

    # Active-window pruning shrinks the priced workload: the device
    # model, scheduler load counters, and autotuner all see the cheaper
    # tasks.  tail_tol=0 keeps the dense levels x bins count (pruning
    # off must price exactly like the legacy kernels).
    active = family.active_pairs(group, db, plan_cache, trace_parent)
    if weights is not None:
        weights += _member_weights(active, width)
    if active is None:
        n_integrals = dense.tolist()
        saved = [0] * len(n_integrals)
    else:
        active = active.sum(axis=0)
        if ((active < 0) | (active > dense)).any():
            raise ValueError("active pairs outside [0, levels x bins x width]")
        n_integrals = active.tolist()
        saved = ((dense - active) * evals).tolist()

    basis = family.basis
    rows = _SharedBlock(basis, group, grouped).rows if with_payload else None
    prefix = f"grp{point_index}/" if grouped else f"req{point_index}/"
    suffix = f"x{width}" if grouped else ""
    bytes_out = family.bytes_out * width
    rule = family.rule
    tasks = []
    for i, (name, n_levels, bytes_in, n_active, n_saved) in enumerate(
        zip(basis.names, basis.n_levels, family.bytes_in, n_integrals, saved)
    ):
        run = None if rows is None else partial(rows, i)
        tasks.append(Task(
            task_id_base + i, TaskKind.ION,
            point_index + i if spread else point_index, trace_parent, rule,
            f"{prefix}{name}{suffix}", n_levels, n_active, evals, bytes_in,
            bytes_out, 1.0, n_saved, None, run, run,
        ))
    return tasks


def _member_weights(active: np.ndarray | None, width: int) -> list[float]:
    """Fair-share weights of a group's member requests: the row sums of
    the ``(W, n_ions)`` active-pair matrix its tasks are priced from.

    Every member rides the same fused launch; with active-window pruning
    on, a member's weight is its temperature's active (level, bin) pair
    count over the group's ions — the term its row adds to the kernel's
    priced work — so hot temperatures that keep more windows alive carry
    more of the group's measured cost.  Pruning off (``active`` is
    ``None``), the weights are uniform.  Plain deterministic floats, so
    attribution splits are a function of the trace alone.
    """
    if active is None or not active.any():
        return [1.0] * width
    # A fully pruned member still rode the launch: floor at one pair so
    # the split stays defined and every member pays a nonzero share.
    return [float(max(w, 1)) for w in active.sum(axis=1).tolist()]
