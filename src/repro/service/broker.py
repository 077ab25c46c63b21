"""The admission broker: bounded queue, priority lanes, worker pool.

The service half of Fig. 2's architecture, as two short call sequences
(docs/ARCHITECTURE.md §7 tabulates what each stage reads and writes):

- :meth:`SpectrumBroker.submit` — validate → exact cache → lattice →
  coalesce → admit.  Each tier returns the ticket it finished or falls
  through; a full queue rejects with a retry-after hint (backpressure
  instead of unbounded buffering).
- :meth:`SpectrumBroker._worker` — linger → drain → assemble → compile →
  dispatch → trace → fan-back → observe, over one :class:`_Batch`
  record.  Each worker models one hybrid node and dispatches through
  :meth:`repro.core.hybrid.HybridRunner.spawn_batch` on the *shared*
  clock; the simulation prices cost-only tasks and the spectra are
  evaluated out of band, through ``family_spectra``, at fan-back.

Everything runs in virtual time on one :class:`SimClock`, so a given
trace and config reproduce the identical report, latencies included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Generator, Optional, Sequence

import numpy as np

from repro.approx import LatticeSpec, LatticeStats, LatticeStore, RequestEvaluator
from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.cluster.simclock import Signal, SimClock
from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.metrics import RunResult
from repro.core.task import Task
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
)
from repro.service.telemetry import ServiceTelemetry

__all__ = [
    "ServiceConfig", "SpectrumBroker", "Ticket", "play_trace", "run_trace",
    "trace_broker",
]

LANES = ("interactive", "survey")
#: Backpressure hint returned with a rejection (virtual seconds).
RETRY_AFTER_S = 0.5
#: Cap on the exponential backoff factor of a ``run_trace`` retry.
MAX_RETRY_BACKOFF = 32.0


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
    cache_max_entries: int = 256
    cache_max_bytes: int = 32 << 20
    cache_ttl_s: float = 3600.0
    hybrid: HybridConfig = field(default_factory=_default_hybrid)
    #: Atomic database scope shared by all requests.
    db_n_max: int = 4
    db_z_max: int = 14
    #: Approximate serving (:mod:`repro.approx`): the shape of every
    #: family lattice.  Engages only for requests declaring a positive
    #: ``accuracy`` budget; ``None`` routes every request to the exact
    #: path regardless.
    lattice: Optional[LatticeSpec] = LatticeSpec(
        t_min_k=5.0e5, t_max_k=1.0e8, n_nodes=33, method="cubic", safety=2.0
    )

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
        # Frozen, not copied: one array serves every ticket of its key.
        result.setflags(write=False)
        self.status = "completed"
        self.completed_at = now
        self.result = result


@dataclass
class _Batch:
    """What one worker pass carries from drain to fan-back."""

    #: Drained unique requests, interactive lane first.
    entries: list[InFlight]
    #: Dispatch units: one per entry, or the assembler's family groups.
    groups: list[MegabatchGroup] = field(default_factory=list)
    #: Cost-only ion tasks of every group, in group order.
    tasks: list[Task] = field(default_factory=list)
    name: str = ""
    dispatched_at: float = 0.0
    #: The hybrid batch's ledger, folded into the service telemetry.
    result: Optional[RunResult] = None


class SpectrumBroker:
    """Admission, coalescing, caching, and dispatch on one SimClock.

    The observers are optional and cost one attribute read when absent:

    - ``slo``: a :class:`repro.obs.slo.SLOEngine`, sampled at each batch
      completion.  ``None`` (or an engine with no rules) keeps the run
      bit-identical to an unmonitored one — no registry is ever built.
    - ``tsdb``: a :class:`~repro.obs.tsdb.TimeSeriesStore` scraped at
      batch completions on this clock (default
      :data:`~repro.obs.tsdb.NULL_TSDB`).
    - ``anomaly``: an :class:`~repro.obs.anomaly.AnomalyDetector`,
      scanned after each scrape; events flow onto the service bus.
    - ``flight``: the :class:`~repro.obs.flight.FlightRecorder`
      ``run_trace`` arms when asked for postmortem bundles.

    Exposition reads :meth:`registry`; a profile of the trace is
    ``Profile.from_tracer(broker.tracer)``.
    """

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
        self.slo = slo
        self.tsdb = tsdb if tsdb is not None else NULL_TSDB
        self.anomaly = anomaly
        self.flight = None
        self.config = config = config or ServiceConfig()
        self.db = db or AtomicDatabase(
            AtomicConfig(n_max=config.db_n_max, z_max=config.db_z_max)
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        track = self.tracer.track  # 0 for every track of the null tracer
        self.cache = SpectrumCache(
            max_entries=config.cache_max_entries,
            max_bytes=config.cache_max_bytes,
            ttl_s=config.cache_ttl_s,
            tracer=self.tracer,
            track=track("service", "cache"),
        )
        self.coalescer = RequestCoalescer(self.tracer, track("service", "coalescer"))
        self.telemetry = ServiceTelemetry(LANES)
        self.bus = ServiceBus(
            self.telemetry,
            tracer=self.tracer,
            queue_track=track("service", "queue"),
            lane_tracks={lane: track("service", f"lane.{lane}") for lane in LANES},
        )
        self._queues: dict[str, deque[InFlight]] = {lane: deque() for lane in LANES}
        self._assembler = BatchAssembler(width_max=config.batch_width_max)
        self._idle: deque[Signal] = deque()
        self._workers: list[Generator] = []
        self._batch_seq = 0
        self._started = False
        # Causal cost attribution rides the trace (None untraced: the hot
        # path pays nothing).  The online cost model also backs predictive
        # scheduling, so it is built when the trace *or* the scheduler
        # needs it, unless the caller injects a persisted one
        # (the ``--cost-model PATH`` round-trip).
        self.attribution = Attribution(self.tracer) if self.tracer.enabled else None
        if cost_model is None and (
            self.tracer.enabled or config.hybrid.scheduler_kind == "predictive"
        ):
            cost_model = SpanCostModel.from_spec(config.hybrid.device)
        self.cost_model: Optional[SpanCostModel] = cost_model
        self._registry = None  # built by the first registry() call
        self._lattice: Optional[LatticeStore] = None  # built by _open_lattice()
        # Route plan-cache events to this broker's tracer (the cache is
        # process-global; the newest broker owns the instrumentation).
        PLAN_CACHE.bind_tracer(self.tracer if self.tracer.enabled else None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

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
    # Client API: validate -> exact cache -> lattice -> coalesce -> admit
    # ------------------------------------------------------------------
    def submit(
        self, request: SpectrumRequest, lane: str = "interactive", *, retry: bool = False
    ) -> Ticket:
        """Admit one request at the current virtual time.

        Returns a ticket that is already completed (cache or lattice
        hit), pending (queued or coalesced — it completes when the clock
        runs its batch), or rejected (queue full — resubmit with
        ``retry=True`` after ``ticket.retry_after_s`` so only the first
        attempt counts as an arrival).  A request this broker can never serve raises
        ``ValueError`` before an arrival is counted.
        """
        self._validate(request, lane)
        now = self.clock.now
        if retry:
            self.bus.on_retry(lane)
        else:
            self.bus.on_arrival(lane)
        ticket = Ticket(request=request, lane=lane, key=request.key, submitted_at=now)
        if self.tracer.enabled:
            ticket.trace_id = self.tracer.new_id()
        # Each tier returns the ticket it finished, or None to fall through.
        return (
            self._serve_cached(ticket, now)
            or self._serve_lattice(ticket, now)
            or self._coalesce(ticket, now)
            or self._admit(ticket, now)
        )

    def _validate(self, request: SpectrumRequest, lane: str) -> None:
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; expected one of {LANES}")
        if not self._started:
            raise RuntimeError("broker not started; call start() first")
        # Raised here, not from family_plan inside a worker, where it
        # would strand every request drained into the same batch.
        if request.z_max > self.db.config.z_max:
            raise ValueError(
                f"request z_max={request.z_max} exceeds database "
                f"z_max={self.db.config.z_max}"
            )

    def _serve_cached(self, ticket: Ticket, now: float) -> Optional[Ticket]:
        hit = self.cache.get(ticket.key, now)
        if hit is None:
            return None
        ticket.cached = True
        return self._resolve_now(ticket, now, hit, "cache_hit")

    def _serve_lattice(self, ticket: Ticket, now: float) -> Optional[Ticket]:
        """A certified lattice answer for a positive-accuracy request;
        falls through when the exact path must run (tier off, out of
        domain, or still over budget after refinement)."""
        if self.config.lattice is None or not ticket.request.accuracy > 0.0:
            return None
        if self._lattice is None:
            self._open_lattice()
        served = self._lattice.serve(ticket.request)
        if not served.served:
            return None
        ticket.lattice = True
        ticket.error_bound = served.error_bound
        return self._resolve_now(ticket, now, served.values, "lattice_hit")

    def _coalesce(self, ticket: Ticket, now: float) -> Optional[Ticket]:
        entry = self.coalescer.lookup(ticket.key)
        if entry is None:
            return None
        ticket.coalesced = True
        self.coalescer.attach(entry, ticket)
        # The leader (first subscriber) owns the executed work; the
        # follower's span parents under it so the trace shows exactly
        # which request's compute it rode.
        if self.tracer.enabled:
            ticket.leader_trace_id = entry.subscribers[0].trace_id
            self._open_span(ticket, "coalesced")
        return ticket

    def _admit(self, ticket: Ticket, now: float) -> Ticket:
        if self.queue_depth >= self.config.queue_capacity:
            ticket.status = "rejected"
            ticket.retry_after_s = RETRY_AFTER_S
            self.bus.on_rejection(ticket.lane)
            return ticket
        entry = self.coalescer.open(ticket.key, ticket.request, ticket.lane, now)
        entry.subscribers.append(ticket)
        self._queues[ticket.lane].append(entry)
        if self.tracer.enabled:
            self._open_span(ticket, "queued")
        self.bus.on_queue_depth(self.queue_depth, now)
        if self._idle:
            self._idle.popleft().fire(self.clock)
        return ticket

    def _resolve_now(
        self, ticket: Ticket, now: float, values: np.ndarray, outcome: str
    ) -> Ticket:
        """Complete a ticket at admission: a reuse tier answered it."""
        ticket._complete(now, values)
        if self.tracer.enabled:
            self._open_span(ticket, outcome)
            self._close_span(ticket)
        self.bus.on_completion(
            ticket.lane, 0.0, cached=ticket.cached, coalesced=False,
            lattice=ticket.lattice, trace_id=ticket.trace_id,
        )
        return ticket

    def _open_span(self, ticket: Ticket, outcome: str) -> None:
        """Begin the ticket's async request span on its lane track
        (callers guard on ``tracer.enabled``, like every traced site)."""
        args = {"key": ticket.key[:8], "outcome": outcome}
        if ticket.lattice:
            args["error_bound"] = ticket.error_bound
        if ticket.coalesced:
            args["leader"] = ticket.leader_trace_id
        self.tracer.async_begin(
            self.bus.lane_tracks[ticket.lane], "request", ticket.trace_id,
            cat="request", args=args, parent=ticket.leader_trace_id or None,
        )

    def _close_span(self, ticket: Ticket, args: Optional[dict] = None) -> None:
        self.tracer.async_end(
            self.bus.lane_tracks[ticket.lane], "request", ticket.trace_id,
            cat="request", args=args,
        )

    def _open_lattice(self) -> None:
        """Build the approximate-serving store — on the first positive-
        accuracy request, so exact-only runs (and their traces) are
        untouched by the tier.  Store work is host-side precomputation:
        zero virtual time, like plan compilation."""
        self._lattice = LatticeStore(
            evaluator=RequestEvaluator(self.db),
            spec=self.config.lattice,
            tracer=self.tracer,
            track=self.tracer.track("service", "lattice"),
        )

    # ------------------------------------------------------------------
    # Worker pool: linger -> drain -> assemble -> compile -> dispatch ->
    # trace -> fan-back -> observe
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the service workers on the clock (idempotent while they
        run; :func:`play_trace` ends them)."""
        if self._workers:
            return
        self._started = True
        for wid in range(self.config.n_service_workers):
            self._workers.append(self._worker(wid))
            self.clock.spawn(self._workers[-1], name=f"svc{wid}")

    def _worker(self, wid: int) -> Generator:
        runner = HybridRunner(
            self.config.hybrid,
            tracer=self.tracer,
            scope=f"svc{wid}",
            span_cost_model=self.cost_model,
        )
        tracks = (
            self.tracer.track(f"svc{wid}", "dispatch"),
            self.tracer.track(f"svc{wid}", "groups"),
        )
        while True:
            if self._should_linger():
                self.bus.on_window_wait()
                yield self.config.batch_window_s
            batch = self._drain()
            if batch is None:
                idle = Signal(name=f"svc{wid}.idle")
                self._idle.append(idle)
                yield idle
                continue
            self._assemble(batch)
            self._compile(batch)
            self._batch_seq += 1
            batch.name = f"svc{wid}.batch{self._batch_seq}"
            batch.dispatched_at = self.clock.now
            batch.result = yield runner.spawn_batch(
                batch.tasks, self.clock, name=batch.name
            )
            now = self.clock.now
            self._trace(batch, tracks, now)
            self._fan_back(batch, now)
            self.bus.on_batch(batch.result, len(batch.entries))
            self._observe(now)

    def _should_linger(self) -> bool:
        """Admission window: a pure-survey backlog narrower than a full
        batch lingers so plan-compatible arrivals can pile onto the same
        fused launch.  An interactive entry anywhere in the queue
        short-circuits the wait — latency-sensitive requests never pay
        for batch width."""
        window = self.config.batch_window_s
        return (
            window is not None
            and window > 0.0
            and 0 < self.queue_depth < self.config.batch_max
            and not self._queues["interactive"]
        )

    def _drain(self) -> Optional[_Batch]:
        """Up to ``batch_max`` entries, interactive strictly first."""
        entries: list[InFlight] = []
        for lane in LANES:
            queue = self._queues[lane]
            while queue and len(entries) < self.config.batch_max:
                entries.append(queue.popleft())
        if not entries:
            return None
        self.bus.on_queue_depth(self.queue_depth, self.clock.now)
        return _Batch(entries)

    def _assemble(self, batch: _Batch) -> None:
        if self.config.batch_window_s is None:
            batch.groups = [MegabatchGroup((entry,)) for entry in batch.entries]
        else:
            batch.groups = self._assembler.assemble(batch.entries)
            self.bus.on_megabatch([g.width for g in batch.groups])

    def _compile(self, batch: _Batch) -> None:
        """Lower every group to cost-only ion tasks.  Traced, a group
        first gets its span id (so its tasks parent under it) and the
        span's args: member roots and the fair-share weights attribution
        splits the group's measured spans by, which the compile fills in
        from the active-pair matrix it prices the tasks from."""
        batching = self.config.batch_window_s is not None
        tasks = batch.tasks
        for group in batch.groups:
            weights = None
            if self.tracer.enabled:
                group.span_id = self.tracer.new_id()
                weights = []
                group.meta = {
                    "members": [e.subscribers[0].trace_id for e in group.entries],
                    "weights": weights,
                    "width": group.width,
                    "method": group.entries[0].request.rule,
                }
            # A plain request compiles to req{p}/{ion} tasks on one point;
            # a megabatch group to grp{p}/{ion}x{W} with one point per ion
            # task, so the hybrid rank partition shares the group's host
            # prep across every rank instead of chaining it on one.
            lower = (
                partial(compile_group_tasks, group.requests, spread=True)
                if batching
                else partial(compile_tasks, group.requests[0])
            )
            tasks.extend(
                lower(
                    self.db,
                    point_index=tasks[-1].point_index + 1 if tasks else 0,
                    task_id_base=len(tasks),
                    with_payload=False,
                    trace_parent=group.span_id,
                    weights=weights,
                )
            )

    def _trace(self, batch: _Batch, tracks: tuple[int, int], now: float) -> None:
        """The batch's dispatch span and one span per group, parented
        under the group's leading member's request root — the middle
        link of the request -> group -> task -> kernel chain.  Groups of
        one batch share the dispatch interval, which nests cleanly."""
        if not self.tracer.enabled:
            return
        dispatch_track, groups_track = tracks
        self.tracer.span(
            dispatch_track, batch.name, batch.dispatched_at, now, cat="dispatch",
            args={"n_requests": len(batch.entries), "n_tasks": len(batch.tasks)},
        )
        for gi, group in enumerate(batch.groups):
            self.tracer.span(
                groups_track, f"{batch.name}.g{gi}", batch.dispatched_at, now,
                cat="group", id=group.span_id,
                parent=group.meta["members"][0] or None, args=group.meta,
            )

    def _fan_back(self, batch: _Batch, now: float) -> None:
        """Evaluate each group's spectra, fill the cache, close the
        in-flight entries and complete every subscriber ticket."""
        scope = (self.db.config.n_max, self.db.config.z_max)
        for group in batch.groups:
            # The group's stacked (width, n_bins) spectra, evaluated out
            # of band: family_spectra accumulates ion-major, the hybrid
            # runner's own per-point task order, so each row is
            # bit-identical to in-simulation accumulation.
            block = family_spectra((group.requests, *scope))
            for entry, row in zip(group.entries, block):
                # Copied so a cached row does not pin its group's block.
                spectrum = row.copy()
                self.cache.put(entry.key, spectrum, now)
                self.coalescer.resolve(entry.key)
                for ticket in entry.subscribers:
                    ticket._complete(now, spectrum)
                    if self.tracer.enabled:
                        self._close_span(ticket, {"latency_s": ticket.latency_s})
                    self.bus.on_completion(
                        ticket.lane, ticket.latency_s, cached=False,
                        coalesced=ticket.coalesced, trace_id=ticket.trace_id,
                    )

    def _observe(self, now: float) -> None:
        """The batch-completion tail: fold the trace into the cost
        ledger, scrape when the cadence says so, sample the SLO rules."""
        if self.attribution is not None:
            self.fold_trace()
        registry = None
        if self.tsdb.enabled and self.tsdb.due(now):
            registry = self._scrape(now)
        if self.slo is not None and self.slo.rules:
            self.slo.sample(registry if registry is not None else self.registry(), now)

    def _scrape(self, now: float):
        """One scrape of the live registry and the anomaly scan over it."""
        registry = self.registry()
        self.tsdb.scrape(registry, now)
        if self.anomaly is not None:
            for event in self.anomaly.scan(self.tsdb):
                self.bus.on_anomaly(event)
        return registry


# ----------------------------------------------------------------------
# Trace playback
# ----------------------------------------------------------------------
def run_trace(
    trace: Sequence[Arrival],
    config: ServiceConfig | None = None,
    db: AtomicDatabase | None = None,
    tracer=None,
    slo=None,
    flight_dir: Optional[str] = None,
    flight_window_s: float = 10.0,
    tsdb=None,
    anomaly=None,
    cost_model=None,
) -> tuple[SpectrumBroker, list[Optional[Ticket]]]:
    """Play a traffic trace through a fresh broker to completion.

    Each arrival is submitted at its arrival time, inside the trace
    dispatcher's own event; a rejected one is resubmitted by a clock
    callback after an exponential (deterministic) backoff from the
    broker's retry-after hint until admitted — so a finite trace always
    ends with zero lost requests unless the service itself stalls.  A
    ticket the reuse tiers answer costs no simulated process.

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
    broker = trace_broker(
        config, db, tracer, slo, flight_dir, flight_window_s, tsdb, anomaly,
        cost_model,
    )
    return broker, play_trace(broker, trace)


def trace_broker(
    config: ServiceConfig | None = None,
    db: AtomicDatabase | None = None,
    tracer=None,
    slo=None,
    flight_dir: Optional[str] = None,
    flight_window_s: float = 10.0,
    tsdb=None,
    anomaly=None,
    cost_model=None,
) -> SpectrumBroker:
    """The broker :func:`run_trace` plays its trace through, on a fresh
    clock and with the flight recorder armed.  Nothing has run yet, so
    a setting the broker or the recorder refuses raises here."""
    clock = SimClock()
    if tracer is not None:
        tracer.bind(clock)
    broker = SpectrumBroker(
        clock, config, db=db, tracer=tracer, slo=slo, tsdb=tsdb,
        anomaly=anomaly, cost_model=cost_model,
    )
    if flight_dir is not None and (slo is not None or anomaly is not None):
        from repro.obs.flight import FlightRecorder

        broker.flight = FlightRecorder(broker, flight_dir, window_s=flight_window_s)
        if slo is not None:
            broker.flight.arm(slo)
        if anomaly is not None:
            broker.flight.arm_anomalies(anomaly)
    return broker


def play_trace(
    broker: SpectrumBroker, trace: Sequence[Arrival]
) -> list[Optional[Ticket]]:
    """Start ``broker`` and play ``trace`` through it to completion, as
    :func:`run_trace` does; returns each arrival's final ticket.  The
    broker's workers end with the trace: its reuse tiers still answer,
    and :meth:`SpectrumBroker.start` spawns new workers for more."""
    clock = broker.clock
    broker.start()
    tickets: list[Optional[Ticket]] = [None] * len(trace)

    def submit(job: tuple[int, int]) -> None:
        i, attempt = job
        arrival = trace[i]
        ticket = broker.submit(arrival.request, lane=arrival.lane, retry=attempt > 0)
        if ticket.rejected:
            backoff = min(2.0**attempt, MAX_RETRY_BACKOFF)
            clock.call_at(ticket.retry_after_s * backoff, submit, (i, attempt + 1))
        else:
            tickets[i] = ticket

    def dispatcher() -> Generator:
        for i, arrival in enumerate(trace):
            delay = arrival.t - clock.now
            if delay > 0:
                yield delay
            submit((i, 0))

    clock.spawn(dispatcher(), name="dispatcher")
    clock.run()
    # A drained worker is parked on an idle signal the broker holds, and
    # ``submit`` names itself: two cycles through the broker.  Ending the
    # workers and unbinding ``submit`` lets reference counting free it.
    for worker in broker._workers:
        worker.close()
    broker._workers.clear()
    broker._idle.clear()
    del submit
    broker.bus.finalize(clock.now)
    if broker.tsdb.enabled:
        # One closing scrape so the stored series end on the finalized
        # registry state (residency folded, end_time stamped).
        broker._scrape(clock.now)
    return tickets
