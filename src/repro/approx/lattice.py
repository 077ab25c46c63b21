"""The log-T spectrum lattice: nodes, certification, and refinement.

A :class:`SpectrumLattice` holds exact spectra at log-spaced
temperatures and serves any in-domain temperature by log-log
interpolation (:mod:`repro.approx.interp`).  The accuracy story is
*measured*, not assumed: every interval between adjacent nodes carries a
certificate obtained by evaluating the exact spectrum at the interval's
log-midpoint and comparing it with the interpolant there.  The certified
bound is ``safety x`` the measured peak-relative midpoint error — for
linear interpolation the error curve vanishes at both endpoints and
peaks near the midpoint, so the midpoint sample estimates the interval
maximum and the safety factor absorbs the curvature variation the single
sample cannot see.  Held-out sweeps in ``tests/approx`` verify the bound
empirically across methods and tail tolerances.

Refinement is bisection: :meth:`SpectrumLattice.refine` promotes an
interval's (already computed) midpoint spectrum to a full node and
certifies the two child intervals with one new exact evaluation each.
Each bisection cuts ``h`` in half and the O(h^2) interpolation error by
~4x, so a handful of demand-driven refinements walks any smooth interval
under its requested budget.

The exact evaluator is pluggable.  :func:`plan_exact_fn` builds one from
the megabatch plan path — every node evaluation goes through
:data:`repro.physics.plan.PLAN_CACHE` and ``SpectrumPlan.execute``, so a
whole lattice build is one plan compilation plus a vectorized sweep of
cheap temperature binds (the model-grid precomputation idiom of
production astronomy codes).  The service tier instead plugs in its own
payload evaluator (:class:`repro.approx.store.RequestEvaluator`), so the
certificate is measured against the very spectra the exact path would
serve.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.approx.interp import (
    INTERP_METHODS,
    IntervalTable,
    eval_table,
    interval_table,
    peak_rel_error,
)

__all__ = [
    "ExactFn",
    "ExactManyFn",
    "LatticeSpec",
    "SpectrumLattice",
    "plan_exact_fn",
]

#: An exact spectrum evaluator: temperature (K) -> per-bin flux array.
ExactFn = Callable[[float], np.ndarray]

#: A batched exact evaluator: temperatures (K) -> one flux array each.
#: Contract: element ``i`` must be bit-identical to ``exact_fn(temps[i])``
#: — batching amortizes setup, never changes the answer.
ExactManyFn = Callable[[list[float]], list[np.ndarray]]

#: Flat bookkeeping charge per node (abscissa, list links, certificates).
NODE_OVERHEAD_BYTES = 64

#: Midpoint-to-maximum correction of the certificate, per method.  The
#: linear interpolant's error profile t(1-t) peaks exactly at the
#: sampled midpoint (factor 1).  The cubic Hermite's profile — shaped by
#: the three-point slope approximation — is systematically *smallest*
#: near the midpoint: measured on smooth service spectra the in-interval
#: maximum runs a uniform ~4.8x the midpoint sample, so the certificate
#: scales the sample by 5 before the user-facing safety factor applies.
_CERT_FACTOR = {"linear": 1.0, "cubic": 5.0}


@dataclass(frozen=True)
class LatticeSpec:
    """Shape of one lattice: domain, initial resolution, method."""

    t_min_k: float
    t_max_k: float
    #: Initial node count (log-spaced, inclusive of both endpoints).
    n_nodes: int = 17
    #: Interpolation method along ln kT ("linear" | "cubic").
    method: str = "linear"
    #: Certified bound = safety x measured midpoint error.
    safety: float = 2.0
    #: Hard cap on nodes per lattice (refinement stops here).
    max_nodes: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 < self.t_min_k < self.t_max_k:
            raise ValueError("need 0 < t_min_k < t_max_k")
        if self.n_nodes < 2:
            raise ValueError("need at least two lattice nodes")
        if self.method not in INTERP_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected {INTERP_METHODS}"
            )
        if self.safety < 1.0:
            raise ValueError("safety factor must be >= 1")
        if self.max_nodes < self.n_nodes:
            raise ValueError("max_nodes must be >= n_nodes")
        # The midpoint certificate assumes the interpolation error is
        # resolved by one interior sample; intervals wider than ~1
        # e-fold of temperature break that (measured on service
        # spectra: sound at h <= 0.88, unsound at h >= 1.06), so a
        # minimum density is part of the spec's validity envelope
        # rather than a tuning suggestion.  The cap of 0.75 e-folds
        # per interval keeps a margin below the measured edge.
        span = math.log(self.t_max_k / self.t_min_k)
        needed = 1 + math.ceil(span / 0.75)
        if self.n_nodes < needed:
            raise ValueError(
                f"n_nodes={self.n_nodes} too coarse for a "
                f"{span:.1f} e-fold domain; need >= {needed} "
                "(at most 0.75 e-folds per interval)"
            )


@dataclass
class _Interval:
    """Certificate and interpolation table of one inter-node interval.

    The midpoint spectrum is retained so (a) re-certification after a
    neighbouring insert costs no exact evaluation (the cubic stencil
    changes when a neighbour gains a node) and (b) refinement promotes
    it to a node for free.  The table is what every hit inside the
    interval evaluates; ``refine`` replaces exactly the intervals whose
    stencil changed, so replacement *is* invalidation.
    """

    mid_u: float
    mid_values: np.ndarray
    abs_err: np.ndarray  # per-bin |interp(mid) - exact(mid)|
    rel_err: float  # peak-relative midpoint error
    table: IntervalTable
    abs_bound: np.ndarray  # cert scale x abs_err, read-only, served as is

    @property
    def nbytes(self) -> int:
        held = (self.mid_values, self.abs_err, self.abs_bound, self.table)
        return sum(a.nbytes for a in held)


class SpectrumLattice:
    """Exact spectra on a refinable log-T lattice with error certificates."""

    def __init__(
        self,
        spec: LatticeSpec,
        exact_fn: ExactFn,
        fingerprint: str = "",
        exact_many_fn: Optional[ExactManyFn] = None,
    ) -> None:
        self.spec = spec
        self.exact_fn = exact_fn
        #: Batched evaluator for node sets whose temperatures are known
        #: up front (the whole initial build).  Rides the megabatch path
        #: — one stacked launch instead of a node-by-node loop — and
        #: must return bit-identical spectra per temperature.
        self.exact_many_fn = exact_many_fn
        #: Content address of the inputs the node spectra derive from
        #: (database + grid); the store drops lattices whose fingerprint
        #: no longer matches the live evaluator's.
        self.fingerprint = fingerprint
        #: Exact evaluations performed (build + certification + refines).
        self.node_evals = 0
        self._cert_scale = spec.safety * _CERT_FACTOR[spec.method]
        u = np.log(
            np.geomspace(spec.t_min_k, spec.t_max_k, spec.n_nodes)
        )
        self._u: list[float] = [float(x) for x in u]
        # Build-time node and certificate temperatures are all known
        # before any evaluation happens, so both sweeps batch.
        self._values: list[np.ndarray] = self._eval_many_u(self._u)
        mid_us = [
            0.5 * (self._u[i] + self._u[i + 1])
            for i in range(len(self._u) - 1)
        ]
        mid_values = self._eval_many_u(mid_us)
        self._intervals: list[_Interval] = [
            self._measure(i, mu, mv)
            for i, (mu, mv) in enumerate(zip(mid_us, mid_values))
        ]
        #: Budgeted size (nodes, certificates, tables); refine keeps it.
        self.nbytes = self.n_nodes * NODE_OVERHEAD_BYTES + sum(
            a.nbytes for a in self._values + self._intervals
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._u)

    @property
    def n_intervals(self) -> int:
        return len(self._intervals)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def locate(self, temperature_k: float) -> Optional[int]:
        """Index of the interval containing ``T``; None outside the domain."""
        if temperature_k <= 0.0:
            return None
        return self.locate_u(math.log(temperature_k))

    def locate_u(self, u: float) -> Optional[int]:
        """:meth:`locate` on the ``u = ln T`` axis: one bisection."""
        if not self._u[0] <= u <= self._u[-1]:
            return None
        return min(bisect_right(self._u, u) - 1, self.n_intervals - 1)

    def certified_error(self, interval: int) -> float:
        """Peak-relative error bound certified for one interval."""
        return self._cert_scale * self._intervals[interval].rel_err

    def interpolate(self, temperature_k: float) -> np.ndarray:
        """The interpolated spectrum at ``T`` (must be in the domain)."""
        return self.interpolate_in(*self._located(temperature_k))

    def interpolate_in(self, interval: int, u: float) -> np.ndarray:
        """:meth:`interpolate` at ``u`` in the interval :meth:`locate_u`
        gave: its table evaluated there, or on a node that node's bits."""
        for j in (interval, interval + 1):
            if self._u[j] == u:
                return self._values[j].copy()
        return eval_table(self._intervals[interval].table, u)

    def error_bound(self, temperature_k: float) -> np.ndarray:
        """Per-bin absolute error bound at ``T``.

        ``safety x`` the containing interval's measured per-bin midpoint
        error — the computable certificate the broker attaches to every
        lattice-served spectrum.  A ``T`` exactly on a node is exact,
        but still reports its interval's bound (a valid over-estimate).
        """
        return self.abs_bound(self._located(temperature_k)[0])

    def abs_bound(self, interval: int) -> np.ndarray:
        """One interval's :meth:`error_bound`: read-only, shared by hits."""
        return self._intervals[interval].abs_bound

    def _located(self, temperature_k: float) -> tuple[int, float]:
        i = self.locate(temperature_k)
        if i is None:
            raise ValueError(
                f"temperature {temperature_k} outside the lattice domain"
            )
        return i, math.log(temperature_k)

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def refine(self, interval: int) -> None:
        """Bisect one interval: its midpoint becomes a node.

        Costs two exact evaluations (one per child certificate); the new
        node's spectrum was already computed for the parent certificate.
        Neighbouring intervals are re-certified for free when the cubic
        stencil shift touches them.
        """
        if self.n_nodes >= self.spec.max_nodes:
            raise ValueError(
                f"lattice at max_nodes={self.spec.max_nodes}; cannot refine"
            )
        iv = self._intervals[interval]
        # All this call may replace: the interval and (cubic) its neighbours.
        lo, hi = max(0, interval - 1), interval + 2
        self.nbytes -= sum(old.nbytes for old in self._intervals[lo:hi])
        self._u.insert(interval + 1, iv.mid_u)
        self._values.insert(interval + 1, iv.mid_values)
        self._intervals[interval: interval + 1] = [
            self._certify(j) for j in (interval, interval + 1)
        ]
        if self.spec.method == "cubic":
            # The Hermite stencil of the flanking intervals now includes
            # the new node; refresh their certificates from the stored
            # midpoint spectra (no new exact evaluations).
            for j in (interval - 1, interval + 2):
                if 0 <= j < self.n_intervals:
                    old = self._intervals[j]
                    self._intervals[j] = self._measure(
                        j, old.mid_u, old.mid_values
                    )
        self.nbytes += iv.mid_values.nbytes + NODE_OVERHEAD_BYTES + sum(
            new.nbytes for new in self._intervals[lo: hi + 1]
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stencil(self, interval: int) -> tuple[np.ndarray, np.ndarray, int]:
        """``(u_nodes, values, a)`` for :func:`interval_table`: the nodes
        the method reads on one interval — its two, plus one to each
        side for the cubic — and the interval's place among them; bit
        for bit what the whole lattice gives, without stacking it."""
        reach = 1 if self.spec.method == "cubic" else 0
        lo, hi = max(0, interval - reach), interval + 2 + reach
        u, v = np.asarray(self._u[lo:hi]), np.asarray(self._values[lo:hi])
        return u, v, interval - lo

    def _eval_u(self, u: float) -> np.ndarray:
        self.node_evals += 1
        out = np.asarray(self.exact_fn(float(math.exp(u))), dtype=np.float64)
        out.setflags(write=False)
        return out

    def _eval_many_u(self, us: list[float]) -> list[np.ndarray]:
        """Evaluate a known set of node abscissae, batched when possible.

        With no batched evaluator this is exactly the node-by-node loop;
        with one, all temperatures go through a single megabatched call
        (bit-identical per node by the :data:`ExactManyFn` contract) and
        the eval counter advances by the same amount either way.
        """
        if self.exact_many_fn is None or len(us) <= 1:
            return [self._eval_u(u) for u in us]
        self.node_evals += len(us)
        values = self.exact_many_fn([float(math.exp(u)) for u in us])
        if len(values) != len(us):
            raise ValueError(
                f"batched evaluator returned {len(values)} spectra "
                f"for {len(us)} temperatures"
            )
        out = []
        for v in values:
            arr = np.asarray(v, dtype=np.float64)
            arr.setflags(write=False)
            out.append(arr)
        return out

    def _certify(self, interval: int) -> _Interval:
        mid_u = 0.5 * (self._u[interval] + self._u[interval + 1])
        return self._measure(interval, mid_u, self._eval_u(mid_u))

    def _measure(self, interval: int, mid_u: float, mid_values) -> _Interval:
        # Certified on its table's first evaluation: the serving arithmetic.
        table = interval_table(*self._stencil(interval), self.spec.method)
        approx = eval_table(table, mid_u)
        raw = np.abs(approx - mid_values)
        # Per-bin certification from one midpoint sample needs two
        # corrections.  (a) Dilate by one bin to each side: in steep
        # spectral tails the error drops orders of magnitude bin to bin
        # and shifts sideways as T moves off the midpoint, so a bin's
        # bound must cover its neighbours' midpoint errors too.
        # (b) Floor at half the interval's peak error: fine sub-peak
        # structure in the midpoint sample is not certifiable across a
        # coarse interval, while the half-peak level *is* — every bin's
        # error is below the interval max, which the scalar certificate
        # (= cert scale x peak) covers with a factor-2 margin.  The
        # peak itself (and the scalar certificate) is unchanged.
        abs_err = raw.copy()
        if raw.size > 1:
            np.maximum(abs_err[1:], raw[:-1], out=abs_err[1:])
            np.maximum(abs_err[:-1], raw[1:], out=abs_err[:-1])
        np.maximum(abs_err, 0.5 * float(raw.max(initial=0.0)), out=abs_err)
        abs_err.setflags(write=False)
        abs_bound = self._cert_scale * abs_err
        abs_bound.setflags(write=False)
        return _Interval(
            mid_u=mid_u,
            mid_values=mid_values,
            abs_err=abs_err,
            rel_err=peak_rel_error(approx, mid_values),
            table=table,
            abs_bound=abs_bound,
        )


def plan_exact_fn(
    db,
    grid,
    ions=None,
    method: str = "simpson",
    pieces: int = 64,
    k: int = 7,
    gl_points: int = 12,
    tail_tol: float = 0.0,
    gaunt: bool = True,
    ne_cm3: float = 1.0,
    plan_cache=None,
) -> ExactFn:
    """An :data:`ExactFn` over the megabatch plan path.

    All evaluations share one compiled :class:`~repro.physics.plan.
    SpectrumPlan` out of the plan cache — building a lattice is exactly
    the cheap sweep the plan was designed for: compile once, bind a
    temperature per node, one fused launch each.
    """
    from repro.physics.apec import GridPoint
    from repro.physics.plan import PLAN_CACHE

    cache = plan_cache if plan_cache is not None else PLAN_CACHE

    def exact(temperature_k: float) -> np.ndarray:
        plan = cache.get(
            db, grid, ions=ions, method=method, pieces=pieces, k=k,
            gl_points=gl_points, tail_tol=tail_tol, gaunt=gaunt,
        )
        point = GridPoint(temperature_k=temperature_k, ne_cm3=ne_cm3)
        return plan.execute(point).values

    return exact
