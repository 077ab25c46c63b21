"""The admission broker: bounded queue, priority lanes, worker pool.

Request lifecycle (the service half of Fig. 2's architecture):

1. :meth:`SpectrumBroker.submit` — cache lookup first (hit: the ticket
   completes immediately), then the coalescer (identical request already
   in flight: attach, no queue slot consumed), then admission into the
   bounded queue (full: reject with a retry-after hint — backpressure
   instead of unbounded buffering).
2. Service workers drain the queue — interactive lane strictly before
   survey — in batches of up to ``batch_max`` unique requests, lower
   each request to Ion tasks, and dispatch the batch through
   :meth:`repro.core.hybrid.HybridRunner.spawn_batch` on the *shared*
   clock (each worker models one hybrid node).
3. On batch completion each group's spectra are evaluated — out of
   band, through ``family_spectra``: the simulation priced cost-only
   tasks — and cached, every subscriber ticket (leader + coalesced
   followers) completes, and the batch's hybrid ledger folds into the
   service telemetry.

Everything runs in virtual time on one :class:`SimClock`, so a given
trace and config reproduce the identical report, latencies included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

import numpy as np

from repro.approx import (
    INTERP_METHODS,
    LatticeSpec,
    LatticeStats,
    LatticeStore,
    RequestEvaluator,
)
from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.cluster.simclock import Signal, SimClock
from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.obs.attribution import Attribution, AttributionResult
from repro.obs.attribution import CostModel as SpanCostModel
from repro.obs.bus import ServiceBus
from repro.obs.tracer import NULL_TRACER
from repro.obs.tsdb import NULL_TSDB
from repro.physics.plan import PLAN_CACHE
from repro.service.batching import BatchAssembler, MegabatchGroup
from repro.service.cache import SpectrumCache
from repro.service.coalesce import InFlight, RequestCoalescer
from repro.service.loadgen import Arrival
from repro.service.requests import (
    SpectrumRequest,
    compile_group_tasks,
    compile_tasks,
    family_spectra,
    group_member_weights,
)
from repro.service.telemetry import ServiceTelemetry

__all__ = ["ServiceConfig", "SpectrumBroker", "Ticket", "run_trace"]

LANES = ("interactive", "survey")


def _default_hybrid() -> HybridConfig:
    """One service worker's hybrid node.

    Per-point I/O and ion-balance overhead is amortized by the resident
    service process (the 70 s figure prices a cold batch job), so the
    cost model zeroes it.
    """
    return HybridConfig(
        n_workers=4,
        n_gpus=1,
        max_queue_length=8,
        stagger_s=0.0,
        cost=CostModel(point_overhead_s=0.0),
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the service layer."""

    #: Admission-queue capacity across both lanes (unique requests).
    queue_capacity: int = 32
    #: Service workers; each owns one hybrid node (``hybrid``).
    n_service_workers: int = 2
    #: Unique requests dispatched per hybrid batch.
    batch_max: int = 4
    #: Continuous batching: how long a worker lingers (virtual seconds)
    #: to let plan-compatible arrivals accumulate before dispatching a
    #: megabatch.  ``None`` (the default) keeps the legacy one-request-
    #: per-plan dispatch path bit for bit; ``0.0`` batches whatever is
    #: already queued without waiting (the "empty window" edge case).
    #: Interactive arrivals always short-circuit the wait.
    batch_window_s: Optional[float] = None
    #: Max temperatures fused into one megabatch group.
    batch_width_max: int = 16
    #: Backpressure hint returned with a rejection.
    retry_after_s: float = 0.5
    cache_max_entries: int = 256
    cache_max_bytes: int = 32 << 20
    cache_ttl_s: float = 3600.0
    hybrid: HybridConfig = field(default_factory=_default_hybrid)
    #: Atomic database scope shared by all requests.
    db_n_max: int = 4
    db_z_max: int = 14
    #: Cap per-lane latency samples at this reservoir size (uniform
    #: sample, deterministic); ``None`` keeps every sample, matching the
    #: historical behaviour.
    latency_reservoir: Optional[int] = None
    #: Approximate serving (:mod:`repro.approx`).  Engages only for
    #: requests declaring a positive ``accuracy`` budget; ``False``
    #: routes every request to the exact path regardless.
    lattice: bool = True
    #: Temperature domain of the per-family lattices (log-spaced).
    lattice_t_min_k: float = 5.0e5
    lattice_t_max_k: float = 1.0e8
    #: Initial nodes per lattice; bisection refines on demand.
    lattice_nodes: int = 33
    #: Interpolation method along ln kT ("linear" | "cubic").
    lattice_method: str = "cubic"
    #: Certified bound = safety x measured midpoint error.
    lattice_safety: float = 2.0
    #: Store-wide byte budget across families (LRU past it).
    lattice_max_bytes: int = 8 << 20
    #: Interval bisections allowed per served request.
    lattice_refine_max: int = 2

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.n_service_workers < 1:
            raise ValueError("need at least one service worker")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.batch_window_s is not None and self.batch_window_s < 0.0:
            raise ValueError("batch_window_s must be >= 0 or None")
        if self.batch_width_max < 1:
            raise ValueError("batch_width_max must be >= 1")
        if self.retry_after_s <= 0.0:
            raise ValueError("retry_after_s must be positive")
        if self.latency_reservoir is not None and self.latency_reservoir < 1:
            raise ValueError("latency_reservoir must be >= 1 or None")
        if not 0.0 < self.lattice_t_min_k < self.lattice_t_max_k:
            raise ValueError("need 0 < lattice_t_min_k < lattice_t_max_k")
        if self.lattice_nodes < 2:
            raise ValueError("lattice_nodes must be >= 2")
        if self.lattice_method not in INTERP_METHODS:
            raise ValueError(
                f"unknown lattice_method {self.lattice_method!r}; "
                f"expected one of {INTERP_METHODS}"
            )
        if self.lattice_safety < 1.0:
            raise ValueError("lattice_safety must be >= 1")
        if self.lattice_max_bytes < 1:
            raise ValueError("lattice_max_bytes must be >= 1")
        if self.lattice_refine_max < 0:
            raise ValueError("lattice_refine_max must be >= 0")


@dataclass
class Ticket:
    """The broker's receipt for one submitted request."""

    request: SpectrumRequest
    lane: str
    key: str
    submitted_at: float
    status: str = "pending"  # pending | completed | rejected
    cached: bool = False
    coalesced: bool = False
    #: Served by lattice interpolation within the declared accuracy.
    lattice: bool = False
    #: Certified peak-relative error bound of a lattice-served result
    #: (0 on the exact path — the answer is the answer).
    error_bound: float = 0.0
    retry_after_s: float = 0.0
    completed_at: float = 0.0
    result: Optional[np.ndarray] = None
    #: Async-span correlation id of this request in the trace (0 when
    #: tracing is off or the ticket was rejected before a span opened).
    #: Allocated from the tracer's span-id space, so group/task/kernel
    #: spans link to it directly.
    trace_id: int = 0
    #: Leader's trace id when this ticket coalesced onto an in-flight
    #: request — the causal link from a follower to the executed work.
    leader_trace_id: int = 0
    #: Fires with the spectrum when the request resolves (pre-fired for
    #: cache hits); ``None`` on rejected tickets.
    signal: Optional[Signal] = None

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    @property
    def done(self) -> bool:
        return self.status == "completed"

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.submitted_at

    def _complete(self, now: float, result: np.ndarray) -> None:
        self.status = "completed"
        self.completed_at = now
        self.result = result


class SpectrumBroker:
    """Admission, coalescing, caching, and dispatch on one SimClock."""

    def __init__(
        self,
        clock: SimClock,
        config: ServiceConfig | None = None,
        db: AtomicDatabase | None = None,
        tracer=None,
        slo=None,
        tsdb=None,
        anomaly=None,
        cost_model=None,
    ) -> None:
        self.clock = clock
        #: Optional :class:`repro.obs.slo.SLOEngine`; sampled at each
        #: batch completion.  ``None`` (or an engine with no rules)
        #: keeps the run bit-identical to an unmonitored one — no
        #: registry is ever built.
        self.slo = slo
        #: Continuous telemetry: a :class:`~repro.obs.tsdb.TimeSeriesStore`
        #: scraped at batch completions on this clock.  The default
        #: :data:`~repro.obs.tsdb.NULL_TSDB` reduces the hot path to one
        #: ``enabled`` attribute read.
        self.tsdb = tsdb if tsdb is not None else NULL_TSDB
        #: Optional :class:`~repro.obs.anomaly.AnomalyDetector`, scanned
        #: after each scrape; events flow onto the service bus.
        self.anomaly = anomaly
        self.config = config or ServiceConfig()
        self.db = db or AtomicDatabase(
            AtomicConfig(n_max=self.config.db_n_max, z_max=self.config.db_z_max)
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            cache_track = self.tracer.track("service", "cache")
            coalesce_track = self.tracer.track("service", "coalescer")
            queue_track = self.tracer.track("service", "queue")
            lane_tracks = {
                lane: self.tracer.track("service", f"lane.{lane}") for lane in LANES
            }
        else:
            cache_track = coalesce_track = queue_track = 0
            lane_tracks = {}
        self._lane_tracks = lane_tracks
        self.cache = SpectrumCache(
            max_entries=self.config.cache_max_entries,
            max_bytes=self.config.cache_max_bytes,
            ttl_s=self.config.cache_ttl_s,
            tracer=self.tracer,
            track=cache_track,
        )
        self.coalescer = RequestCoalescer(tracer=self.tracer, track=coalesce_track)
        self.telemetry = ServiceTelemetry(
            LANES, latency_reservoir=self.config.latency_reservoir
        )
        self.bus = ServiceBus(
            self.telemetry,
            tracer=self.tracer,
            queue_track=queue_track,
            lane_tracks=lane_tracks,
        )
        self._queues: dict[str, deque[InFlight]] = {lane: deque() for lane in LANES}
        self._assembler = BatchAssembler(width_max=self.config.batch_width_max)
        self._idle: deque[Signal] = deque()
        self._batch_seq = 0
        self._started = False
        # Causal cost attribution rides the trace: with tracing off the
        # handle stays None and the hot path pays nothing.  The online
        # cost model additionally backs predictive scheduling, so it is
        # built whenever the trace *or* the scheduler needs it (or the
        # caller injects a persisted one via ``cost_model`` — the
        # ``--cost-model PATH`` round-trip).
        if self.tracer.enabled:
            self.attribution: Optional[Attribution] = Attribution(self.tracer)
        else:
            self.attribution = None
        if cost_model is not None:
            self.cost_model: Optional[SpanCostModel] = cost_model
        elif (
            self.tracer.enabled
            or self.config.hybrid.scheduler_kind == "predictive"
        ):
            self.cost_model = SpanCostModel.seeded_from_counters(
                self.config.hybrid.device
            )
        else:
            self.cost_model = None
        self._registry = None  # built by the first registry() call
        # Built on the first positive-accuracy request, so exact-only
        # runs (and their traces) are untouched by the lattice tier.
        self._lattice: Optional[LatticeStore] = None
        # Route plan-cache events to this broker's tracer (the cache is
        # process-global; the newest broker owns the instrumentation).
        PLAN_CACHE.bind_tracer(self.tracer if self.tracer.enabled else None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def lattice_store(self) -> Optional[LatticeStore]:
        """The approximate-serving store (``None`` until first used)."""
        return self._lattice

    def report(self) -> dict:
        """One dict spanning the whole stack: service, cache, coalescer."""
        out = self.telemetry.as_dict()
        out["cache"] = self.cache.stats.as_dict()
        out["cache"]["entries"] = len(self.cache)
        out["cache"]["bytes_stored"] = self.cache.bytes_stored
        out["coalescer"] = {
            "opened": self.coalescer.opened,
            "coalesced": self.coalescer.coalesced,
        }
        out["lattice"] = self.lattice_report()
        return out

    def lattice_report(self) -> dict:
        """The approximate-serving store's counters (zeros until first used)."""
        if self._lattice is not None:
            return self._lattice.as_dict()
        return dict(LatticeStats().as_dict(), families=0, nodes=0, bytes_stored=0)

    def registry(self):
        """This broker's metrics registry, current as of the call.

        One live registry per broker: built on first use (an unobserved
        broker never pays for it), refreshed in place from the ledgers
        afterwards — every call returns the same object.  The handle the
        SLO engine, the scraper and exposition consumers share.
        """
        from repro.obs.prom import MetricsRegistry, fill_service

        if self._registry is None:
            self._registry = MetricsRegistry()
        return fill_service(self._registry, self)

    def profile(self):
        """Hierarchical cost attribution over this broker's trace.

        Requires the broker to have been built with an
        :class:`~repro.obs.tracer.EventTracer`.
        """
        from repro.obs.profile import Profile

        if not self.tracer.enabled:
            raise ValueError(
                "broker has no event tracer; construct it with "
                "tracer=EventTracer() to profile"
            )
        return Profile.from_tracer(self.tracer)

    def cost_report(self) -> Optional[AttributionResult]:
        """Per-request attributed cost ledger (``None`` when untraced).

        Ingests any spans recorded since the last batch completion first,
        so the snapshot is current as of the call.
        """
        if self.attribution is None:
            return None
        self.fold_trace()
        return self.attribution.result()

    def fold_trace(self) -> None:
        """Fold spans recorded since the last call into the cost ledger
        and feed the completed tasks' measured costs to the online model —
        unless the predictive dispatch already observed them directly
        (each measurement must update the EWMA once)."""
        self.attribution.ingest()
        observations = self.attribution.drain_observations()
        if (
            self.cost_model is not None
            and self.config.hybrid.scheduler_kind != "predictive"
        ):
            self.cost_model.ingest(observations)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self, request: SpectrumRequest, lane: str = "interactive", *, retry: bool = False
    ) -> Ticket:
        """Admit one request at the current virtual time.

        Returns a ticket that is already completed (cache hit), pending
        (queued or coalesced — wait on ``ticket.signal``), or rejected
        (queue full — resubmit with ``retry=True`` after
        ``ticket.retry_after_s`` so only the first attempt counts as an
        arrival).
        """
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; expected one of {LANES}")
        if not self._started:
            raise RuntimeError("broker not started; call start() first")
        now = self.clock.now
        if retry:
            self.bus.on_retry(lane)
        else:
            self.bus.on_arrival(lane)
        key = request.key
        ticket = Ticket(request=request, lane=lane, key=key, submitted_at=now)
        traced = self.tracer.enabled
        if traced:
            ticket.trace_id = self.tracer.new_id()

        hit = self.cache.get(key, now)
        if hit is not None:
            ticket.cached = True
            ticket._complete(now, hit)
            sig = Signal(name=f"cached.{key[:8]}")
            sig.fire(self.clock, hit)
            ticket.signal = sig
            if traced:
                lt = self._lane_tracks[lane]
                self.tracer.async_begin(
                    lt, "request", ticket.trace_id, cat="request",
                    args={"key": key[:8], "outcome": "cache_hit"},
                )
                self.tracer.async_end(lt, "request", ticket.trace_id, cat="request")
            self.bus.on_completion(
                lane, 0.0, cached=True, coalesced=False, trace_id=ticket.trace_id
            )
            return ticket

        if self.config.lattice and request.accuracy > 0.0:
            served = self._lattice_serve(request)
            if served is not None:
                ticket.lattice = True
                ticket.error_bound = served.error_bound
                ticket._complete(now, served.values)
                sig = Signal(name=f"lattice.{key[:8]}")
                sig.fire(self.clock, served.values)
                ticket.signal = sig
                if traced:
                    lt = self._lane_tracks[lane]
                    self.tracer.async_begin(
                        lt, "request", ticket.trace_id, cat="request",
                        args={
                            "key": key[:8],
                            "outcome": "lattice_hit",
                            "error_bound": served.error_bound,
                        },
                    )
                    self.tracer.async_end(
                        lt, "request", ticket.trace_id, cat="request"
                    )
                self.bus.on_completion(
                    lane,
                    0.0,
                    cached=False,
                    coalesced=False,
                    lattice=True,
                    trace_id=ticket.trace_id,
                )
                return ticket

        entry = self.coalescer.lookup(key)
        if entry is not None:
            ticket.coalesced = True
            ticket.signal = entry.done
            self.coalescer.attach(entry, ticket)
            if traced:
                # The leader (first subscriber) owns the executed work;
                # the follower's span parents under it so the trace shows
                # exactly which request's compute it rode.
                leader = entry.subscribers[0] if entry.subscribers else None
                ticket.leader_trace_id = leader.trace_id if leader else 0
                self.tracer.async_begin(
                    self._lane_tracks[lane], "request", ticket.trace_id,
                    cat="request",
                    args={
                        "key": key[:8],
                        "outcome": "coalesced",
                        "leader": ticket.leader_trace_id,
                    },
                    parent=ticket.leader_trace_id or None,
                )
            return ticket

        if self.queue_depth >= self.config.queue_capacity:
            ticket.status = "rejected"
            ticket.retry_after_s = self.config.retry_after_s
            self.bus.on_rejection(lane)
            return ticket

        entry = self.coalescer.open(key, request, lane, now)
        entry.subscribers.append(ticket)
        ticket.signal = entry.done
        self._queues[lane].append(entry)
        if traced:
            self.tracer.async_begin(
                self._lane_tracks[lane], "request", ticket.trace_id,
                cat="request", args={"key": key[:8], "outcome": "queued"},
            )
        self.bus.on_queue_depth(self.queue_depth, now)
        self._wake_worker()
        return ticket

    # ------------------------------------------------------------------
    # Approximate serving
    # ------------------------------------------------------------------
    def _lattice_serve(self, request: SpectrumRequest):
        """Lattice lookup for one positive-accuracy request.

        Returns the :class:`~repro.approx.store.LatticeResult` on a
        certified hit, ``None`` when the exact path must run (out of
        domain, or still over budget after refinement).  Store work is
        host-side precomputation — zero virtual time, like plan
        compilation.
        """
        if self._lattice is None:
            track = (
                self.tracer.track("service", "lattice")
                if self.tracer.enabled
                else 0
            )
            cfg = self.config
            self._lattice = LatticeStore(
                evaluator=RequestEvaluator(self.db),
                spec=LatticeSpec(
                    t_min_k=cfg.lattice_t_min_k,
                    t_max_k=cfg.lattice_t_max_k,
                    n_nodes=cfg.lattice_nodes,
                    method=cfg.lattice_method,
                    safety=cfg.lattice_safety,
                ),
                max_bytes=cfg.lattice_max_bytes,
                refine_max=cfg.lattice_refine_max,
                tracer=self.tracer,
                track=track,
            )
        result = self._lattice.serve(request)
        return result if result.served else None

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the service workers on the clock (idempotent)."""
        if self._started:
            return
        self._started = True
        for wid in range(self.config.n_service_workers):
            self.clock.spawn(self._worker(wid), name=f"svc{wid}")

    def _wake_worker(self) -> None:
        if self._idle:
            self._idle.popleft().fire(self.clock)

    def _drain_batch(self) -> list[InFlight]:
        """Up to ``batch_max`` entries, interactive strictly first."""
        batch: list[InFlight] = []
        for lane in LANES:
            queue = self._queues[lane]
            while queue and len(batch) < self.config.batch_max:
                batch.append(queue.popleft())
        if batch:
            self.bus.on_queue_depth(self.queue_depth, self.clock.now)
        return batch

    def _worker(self, wid: int) -> Generator:
        runner = HybridRunner(
            self.config.hybrid,
            tracer=self.tracer,
            scope=f"svc{wid}",
            span_cost_model=self.cost_model,
        )
        traced = self.tracer.enabled
        worker_track = (
            self.tracer.track(f"svc{wid}", "dispatch") if traced else 0
        )
        groups_track = (
            self.tracer.track(f"svc{wid}", "groups") if traced else 0
        )
        window = self.config.batch_window_s
        batching = window is not None
        idle_name = f"svc{wid}.idle"
        scope = (self.db.config.n_max, self.db.config.z_max)
        while True:
            if (
                batching
                and window > 0.0
                and 0 < self.queue_depth < self.config.batch_max
                and not self._queues["interactive"]
            ):
                # Admission window: a pure-survey backlog narrower than
                # a full batch lingers so plan-compatible arrivals can
                # pile onto the same fused launch.  An interactive
                # entry anywhere in the queue short-circuits the wait —
                # latency-sensitive requests never pay for batch width.
                self.bus.on_window_wait()
                yield window
            batch = self._drain_batch()
            if not batch:
                idle = Signal(name=idle_name)
                self._idle.append(idle)
                yield idle
                continue
            if batching:
                groups = self._assembler.assemble(batch)
                self.bus.on_megabatch([g.width for g in groups])
            else:
                groups = [MegabatchGroup((entry,)) for entry in batch]
            tasks = []
            # Per-group trace context: one span id per dispatched group
            # (allocated up front so compiled tasks parent under it) plus
            # the member roots and fair-share weights the attribution
            # layer splits the group's measured spans by.
            group_ids: list[int] = []
            group_meta: list[dict] = []
            for gi, group in enumerate(groups):
                gid = 0
                if traced:
                    gid = self.tracer.new_id()
                    group_meta.append(
                        {
                            "members": [
                                e.subscribers[0].trace_id if e.subscribers else 0
                                for e in group.entries
                            ],
                            "weights": group_member_weights(
                                group.requests, self.db
                            ),
                            "width": group.width,
                            "method": group.entries[0].request.rule,
                        }
                    )
                group_ids.append(gid)
                # Cost-only tasks: the spectra are evaluated out of band
                # at fan-back.  Megabatch groups compile with spread
                # point indices — one point per ion task — so the hybrid
                # rank partition shares a group's host prep across every
                # rank instead of chaining the whole group on one.
                if batching:
                    tasks.extend(
                        compile_group_tasks(
                            group.requests, self.db,
                            point_index=tasks[-1].point_index + 1 if tasks else 0,
                            task_id_base=len(tasks), with_payload=False,
                            spread=True, trace_parent=gid,
                        )
                    )
                else:
                    tasks.extend(
                        compile_tasks(
                            group.entries[0].request, self.db,
                            point_index=gi, task_id_base=len(tasks),
                            with_payload=False, trace_parent=gid,
                        )
                    )
            self._batch_seq += 1
            batch_name = f"svc{wid}.batch{self._batch_seq}"
            dispatched_at = self.clock.now
            handle = runner.spawn_batch(tasks, self.clock, name=batch_name)
            result = yield handle
            now = self.clock.now
            if traced:
                self.tracer.span(
                    worker_track,
                    batch_name,
                    dispatched_at,
                    now,
                    cat="dispatch",
                    args={"n_requests": len(batch), "n_tasks": len(tasks)},
                )
                # One span per dispatched group, parented under its
                # leading member's request root — the middle link of the
                # request -> group -> task -> kernel chain.  Groups of one
                # batch share the dispatch interval, which nests cleanly.
                for gi, meta in enumerate(group_meta):
                    members = meta["members"]
                    self.tracer.span(
                        groups_track,
                        f"{batch_name}.g{gi}",
                        dispatched_at,
                        now,
                        cat="group",
                        id=group_ids[gi],
                        parent=(members[0] or None) if members else None,
                        args=meta,
                    )
            for group in groups:
                # The group's stacked (width, n_bins) spectra, evaluated
                # out of band: family_spectra accumulates ion-major, the
                # hybrid runner's own per-point task order, so each row
                # is bit-identical to in-simulation accumulation.
                block = family_spectra((group.requests, *scope))
                for j, entry in enumerate(group.entries):
                    # Copied so a cached row does not pin its group's block.
                    spectrum = block[j].copy()
                    self.cache.put(entry.key, spectrum, now)
                    self.coalescer.resolve(entry.key)
                    for ticket in entry.subscribers:
                        ticket._complete(now, spectrum)
                        if traced and ticket.trace_id:
                            self.tracer.async_end(
                                self._lane_tracks[ticket.lane],
                                "request",
                                ticket.trace_id,
                                cat="request",
                                args={"latency_s": ticket.latency_s},
                            )
                        self.bus.on_completion(
                            ticket.lane,
                            ticket.latency_s,
                            cached=False,
                            coalesced=ticket.coalesced,
                            trace_id=ticket.trace_id,
                        )
                    entry.done.fire(self.clock, spectrum)
            self.bus.on_batch(result, len(batch))
            if self.attribution is not None:
                self.fold_trace()
            registry = None
            if self.tsdb.enabled and self.tsdb.due(now):
                registry = self.registry()
                self.tsdb.scrape(registry, now)
                if self.anomaly is not None:
                    for event in self.anomaly.scan(self.tsdb):
                        self.bus.on_anomaly(event)
            if self.slo is not None and self.slo.rules:
                self.slo.sample(
                    registry if registry is not None else self.registry(), now
                )


# ----------------------------------------------------------------------
# Trace playback
# ----------------------------------------------------------------------
def run_trace(
    trace: Sequence[Arrival],
    config: ServiceConfig | None = None,
    db: AtomicDatabase | None = None,
    max_retry_backoff: float = 32.0,
    tracer=None,
    slo=None,
    flight_dir: Optional[str] = None,
    flight_window_s: float = 10.0,
    tsdb=None,
    anomaly=None,
    cost_model=None,
) -> tuple[SpectrumBroker, list[Optional[Ticket]]]:
    """Play a traffic trace through a fresh broker to completion.

    One client process per arrival: it submits at its arrival time and,
    on rejection, backs off exponentially (deterministically) from the
    broker's retry-after hint until admitted — so a finite trace always
    ends with zero lost requests unless the service itself stalls.

    ``flight_dir`` (with an ``slo`` engine or ``anomaly`` detector
    attached) arms a :class:`~repro.obs.flight.FlightRecorder`: every
    rule entering ``firing`` — and every anomaly event — dumps a
    postmortem bundle — the trailing ``flight_window_s`` of trace and
    scraped series plus the cost ledger — into that directory.  The
    recorder is exposed as ``broker.flight``.

    ``tsdb`` (a :class:`~repro.obs.tsdb.TimeSeriesStore`) is scraped at
    batch completions under its cadence plus once after the trace
    drains; ``anomaly`` scans it after every scrape.

    Returns the broker (telemetry, cache, coalescer all inspectable) and
    each arrival's final ticket, trace-ordered.
    """
    clock = SimClock()
    if tracer is not None:
        tracer.bind(clock)
    broker = SpectrumBroker(
        clock, config, db=db, tracer=tracer, slo=slo, tsdb=tsdb,
        anomaly=anomaly, cost_model=cost_model,
    )
    broker.flight = None
    if flight_dir is not None and (slo is not None or anomaly is not None):
        from repro.obs.flight import FlightRecorder

        broker.flight = FlightRecorder(broker, flight_dir, window_s=flight_window_s)
        if slo is not None:
            broker.flight.arm(slo)
        if anomaly is not None:
            broker.flight.arm_anomalies(anomaly)
    broker.start()
    tickets: list[Optional[Ticket]] = [None] * len(trace)

    def client(i: int, arrival: Arrival) -> Generator:
        attempt = 0
        while True:
            ticket = broker.submit(
                arrival.request, lane=arrival.lane, retry=attempt > 0
            )
            if not ticket.rejected:
                tickets[i] = ticket
                if not ticket.done:
                    yield ticket.signal
                return
            backoff = min(2.0**attempt, max_retry_backoff)
            attempt += 1
            yield ticket.retry_after_s * backoff

    def dispatcher() -> Generator:
        for i, arrival in enumerate(trace):
            delay = arrival.t - clock.now
            if delay > 0:
                yield delay
            clock.spawn(client(i, arrival), name=f"client{i}")

    clock.spawn(dispatcher(), name="dispatcher")
    clock.run()
    broker.bus.finalize(clock.now)
    if broker.tsdb.enabled:
        # One closing scrape so the stored series end on the finalized
        # registry state (residency folded, end_time stamped).
        broker.tsdb.scrape(broker.registry(), clock.now)
        if broker.anomaly is not None:
            for event in broker.anomaly.scan(broker.tsdb):
                broker.bus.on_anomaly(event)
    return broker, tickets
