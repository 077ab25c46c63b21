"""The lattice store: per-family lattices, byte budget, invalidation.

One :class:`LatticeStore` sits beside the exact spectrum cache in the
broker.  Requests that declare a positive ``accuracy`` budget are
grouped by :attr:`~repro.service.requests.SpectrumRequest.family_key`
(everything but temperature and accuracy); each family gets one
:class:`~repro.approx.lattice.SpectrumLattice` built on demand and
shared by every temperature in that family.  The serve path is:

1. locate the request's temperature on the family lattice (outside the
   domain: **miss**, the broker computes exactly);
2. compare the containing interval's certified error with the declared
   budget; while it is too loose, bisect (up to ``refine_max`` per
   request) — each bisection is bounded, demand-driven work that stays
   paid for in the lattice;
3. certificate within budget: **hit**, return the interpolated spectrum
   plus its error bound; still too loose: **fallback**, the broker
   computes exactly and the booking shows where the lattice lost.

The store enforces a byte budget with LRU eviction across families and
drops any lattice whose input fingerprint (database + energy grid) no
longer matches the live evaluator — stale spectra are never served.
Lattice construction is host-side precomputation (the plan-compilation
idiom: zero virtual time), so building costs wall time once and every
subsequent in-budget request is a lookup: one ``log``, one bisection of
the node abscissae, one evaluation of the table its interval has kept
since it was certified — nothing is re-derived from the nodes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.approx.lattice import (
    ExactFn,
    ExactManyFn,
    LatticeSpec,
    SpectrumLattice,
)
from repro.obs.tracer import NULL_TRACER

__all__ = ["LatticeResult", "LatticeStats", "LatticeStore", "RequestEvaluator"]

#: Families whose fingerprint an evaluator remembers (every distinct
#: density is a family, so the memo must not grow with the traffic).
_FINGERPRINT_MEMO_MAX = 1024


class RequestEvaluator:
    """Exact service-path spectra for lattice nodes.

    Nodes are evaluated with :func:`repro.service.requests.
    request_spectrum` — the *same* payload function the broker's exact
    path uses — so a lattice certificate measures distance from exactly
    what an ``accuracy=0`` request would have returned.
    """

    def __init__(self, db) -> None:
        self.db = db
        self._fingerprints: dict[tuple, str] = {}

    def fingerprint(self, request) -> str:
        """Content address of everything a node spectrum derives from.

        Consulted on every lattice lookup, so it is memoized on its own
        inputs — the database config and the family's canonical form
        (which carries ``n_bins``, hence the grid).
        """
        family = request.family_canonical()
        key = (self.db.config, family)
        cached = self._fingerprints.get(key)
        if cached is None:
            from repro.physics.plan import db_fingerprint, grid_fingerprint
            from repro.service.requests import request_grid

            text = "|".join(
                (
                    db_fingerprint(self.db),
                    grid_fingerprint(request_grid(request)),
                    family,
                )
            )
            cached = hashlib.sha1(text.encode("ascii")).hexdigest()
            if len(self._fingerprints) >= _FINGERPRINT_MEMO_MAX:
                self._fingerprints.clear()
            self._fingerprints[key] = cached
        return cached

    def exact_fn(self, request) -> ExactFn:
        """Exact evaluator over temperature for one request family."""
        from repro.service.requests import request_spectrum

        n_max = self.db.config.n_max
        z_max = self.db.config.z_max

        def exact(temperature_k: float) -> np.ndarray:
            probe = dataclasses.replace(
                request, temperature_k=float(temperature_k), accuracy=0.0
            )
            return request_spectrum((probe, n_max, z_max))

        return exact

    def exact_many_fn(self, request) -> "ExactManyFn":
        """Batched node evaluator over the megabatch payload path.

        Lattice builds know every node temperature up front, so node
        refills ride :func:`repro.service.requests.family_spectra` —
        one ion-major stacked evaluation whose row ``j`` is
        bit-identical to ``exact_fn(request)(temps[j])``.
        """
        from repro.service.requests import family_spectra

        n_max = self.db.config.n_max
        z_max = self.db.config.z_max

        def exact_many(temps_k: list) -> list[np.ndarray]:
            probes = tuple(
                dataclasses.replace(
                    request, temperature_k=float(t), accuracy=0.0
                )
                for t in temps_k
            )
            stacked = family_spectra((probes, n_max, z_max))
            return [stacked[j].copy() for j in range(stacked.shape[0])]

        return exact_many


@dataclass
class LatticeStats:
    """Serve-path and lifecycle counters of one store."""

    requests: int = 0
    #: Served by interpolation within the declared budget.
    hits: int = 0
    #: Temperature outside the lattice domain (no interpolant exists).
    misses: int = 0
    #: In domain, but the certificate stayed above budget after the
    #: allowed refinement — the broker computed exactly instead.
    fallbacks: int = 0
    refinements: int = 0
    builds: int = 0
    invalidations: int = 0
    evictions: int = 0
    #: Exact node evaluations paid across builds and refinements.
    node_evals: int = 0

    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "refinements": self.refinements,
            "builds": self.builds,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "node_evals": self.node_evals,
            "hit_ratio": self.hit_ratio(),
        }


@dataclass
class LatticeResult:
    """Outcome of one lattice lookup."""

    #: "hit" | "miss" | "fallback"
    status: str
    #: Interpolated spectrum on a hit; ``None`` otherwise.
    values: Optional[np.ndarray] = None
    #: Certified peak-relative error bound of the served spectrum.
    error_bound: float = 0.0
    #: Certified per-bin absolute error bound (hits only): the served
    #: interval's own read-only array, shared by all its hits.
    abs_bound: Optional[np.ndarray] = None
    #: Intervals bisected while serving this request.
    refinements: int = 0

    @property
    def served(self) -> bool:
        return self.status == "hit"


@dataclass
class LatticeStore:
    """Byte-budgeted, fingerprint-checked family lattices."""

    evaluator: RequestEvaluator
    spec: LatticeSpec
    #: Store-wide byte budget; LRU families are evicted past it.  The
    #: most recent family is never evicted, so one lattice may exceed
    #: the budget rather than thrash rebuild-per-request.
    max_bytes: int = 8 << 20
    #: Interval bisections allowed per served request.
    refine_max: int = 2
    tracer: object = NULL_TRACER
    track: int = 0
    stats: LatticeStats = field(default_factory=LatticeStats)

    def __post_init__(self) -> None:
        if self.max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if self.refine_max < 0:
            raise ValueError("refine_max must be >= 0")
        self._lattices: OrderedDict[str, SpectrumLattice] = OrderedDict()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lattices)

    @property
    def bytes_stored(self) -> int:
        return sum(lat.nbytes for lat in self._lattices.values())

    @property
    def n_nodes(self) -> int:
        return sum(lat.n_nodes for lat in self._lattices.values())

    def lattice(self, family_key: str) -> Optional[SpectrumLattice]:
        """The family's lattice, if resident (no LRU touch)."""
        return self._lattices.get(family_key)

    def as_dict(self) -> dict:
        out = self.stats.as_dict()
        out["families"] = len(self)
        out["nodes"] = self.n_nodes
        out["bytes_stored"] = self.bytes_stored
        return out

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, request) -> LatticeResult:
        """Serve one positive-accuracy request from its family lattice.

        Never raises for in-protocol requests: anything the lattice
        cannot certify within budget comes back as a miss or fallback
        for the broker's exact path.
        """
        self.stats.requests += 1
        lat = self._resident(request)
        # Located once, for the certificate, the interpolant and the bound.
        u = math.log(request.temperature_k)
        i = lat.locate_u(u)
        if i is None:
            self.stats.misses += 1
            self._instant("lattice.miss", request)
            return LatticeResult(status="miss")

        refined = 0
        evals_before = lat.node_evals
        while (
            lat.certified_error(i) > request.accuracy
            and refined < self.refine_max
            and lat.n_nodes < lat.spec.max_nodes
        ):
            lat.refine(i)
            refined += 1
            self.stats.refinements += 1
            self._instant("lattice.refine", request)
            i = lat.locate_u(u)
        self.stats.node_evals += lat.node_evals - evals_before
        if refined:
            self._enforce_budget()

        bound = lat.certified_error(i)
        if bound > request.accuracy:
            self.stats.fallbacks += 1
            self._instant("lattice.fallback", request, bound=bound)
            return LatticeResult(
                status="fallback", error_bound=bound, refinements=refined
            )

        self.stats.hits += 1
        self._instant("lattice.hit", request, bound=bound)
        return LatticeResult(
            status="hit",
            values=lat.interpolate_in(i, u),
            error_bound=bound,
            abs_bound=lat.abs_bound(i),
            refinements=refined,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _resident(self, request) -> SpectrumLattice:
        """The request family's lattice, building/validating as needed."""
        key = request.family_key
        fp = self.evaluator.fingerprint(request)
        lat = self._lattices.get(key)
        if lat is not None and lat.fingerprint != fp:
            # Database or grid changed under the family: stale spectra.
            del self._lattices[key]
            self.stats.invalidations += 1
            self._instant("lattice.invalidate", request)
            lat = None
        if lat is None:
            # Duck-typed evaluators (tests, plan-backed sweeps) may not
            # offer a batched path; the lattice then builds node by node.
            many_factory = getattr(self.evaluator, "exact_many_fn", None)
            lat = SpectrumLattice(
                self.spec,
                self.evaluator.exact_fn(request),
                fingerprint=fp,
                exact_many_fn=(
                    many_factory(request) if many_factory is not None else None
                ),
            )
            self._lattices[key] = lat
            self.stats.builds += 1
            self.stats.node_evals += lat.node_evals
            self._instant(
                "lattice.build", request,
                nodes=lat.n_nodes, nbytes=lat.nbytes,
            )
            self._enforce_budget()
        else:
            self._lattices.move_to_end(key)
        return lat

    def _enforce_budget(self) -> None:
        """Evict LRU-first down to the budget; the family just served is
        the most recent, so it is the one that stays."""
        stored = self.bytes_stored  # one running size per family
        while stored > self.max_bytes and len(self._lattices) > 1:
            stored -= self._lattices.popitem(last=False)[1].nbytes
            self.stats.evictions += 1

    def _instant(self, name: str, request, **extra) -> None:
        if getattr(self.tracer, "enabled", False):
            args = {
                "family": request.family_key[:8],
                "T": request.temperature_k,
                "accuracy": request.accuracy,
            }
            args.update(extra)
            self.tracer.instant(self.track, name, cat="approx", args=args)
