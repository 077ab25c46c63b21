"""The end-to-end hybrid runner — the architecture of Fig. 2.

The main program divides the parameter space into equal subspaces (one or
more grid points per MPI rank); each rank walks its tasks, asking the
local scheduler for a device per task.  Admitted tasks run on the chosen
GPU while the rank blocks (the paper's synchronous mode); rejected tasks
run on the rank's own CPU with the serial QAGS routine.

Besides the hybrid run, the runner prices the two baselines every speedup
in the paper is quoted against:

- :meth:`HybridRunner.serial_time` — the original serial APEC;
- :meth:`HybridRunner.run_mpi_only` — the 24-rank pure-MPI version
  (13.5x over serial, per the paper).

An asynchronous mode (bounded in-flight submissions per rank) implements
the paper's "future work" paragraph and is exercised by an ablation
bench.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from math import inf
from typing import Generator, Optional

import numpy as np

from repro.cluster.simclock import Signal, SimClock
from repro.core.calibration import CostModel
from repro.core.metrics import MetricsLedger, RunResult
from repro.obs.bus import RunBus
from repro.obs.tracer import NULL_TRACER
from repro.core.scheduler import (
    NO_DEVICE,
    ClientServerScheduler,
    PredictiveScheduler,
    RandomScheduler,
    SharedMemoryScheduler,
    WeightedScheduler,
)
from repro.core.task import Task
from repro.gpusim.device import LOST, DeviceSpec, SimulatedGPU, TESLA_C2075

__all__ = ["HybridConfig", "HybridRunner"]

#: The client-server scheduler's per-request round trip; no other kind
#: makes one, so no other kind takes another value.
_RPC_LATENCY_S = 5.0e-4


@dataclass(frozen=True)
class HybridConfig:
    """Knobs of one hybrid run (paper defaults: 24 ranks, Fermi GPUs)."""

    n_workers: int = 24
    n_gpus: int = 3
    max_queue_length: int = 12
    device: DeviceSpec = TESLA_C2075
    #: Optional heterogeneous fleet: one spec per GPU (overrides
    #: ``device`` x ``n_gpus``).  The paper's node is homogeneous; mixed
    #: fleets exercise the scheduler's "tasks of equal size" assumption.
    devices: Optional[tuple[DeviceSpec, ...]] = None
    cost: CostModel = field(default_factory=CostModel)
    #: "shared" (Algorithm 1), "client-server" (MPS-like ablation),
    #: "random" (policy baseline), "weighted" (the future-work speed-aware
    #: rule; uses each device's mean service time for a reference task),
    #: "predictive" (measured-cost placement via the online EWMA cost
    #: model, with work stealing in the dispatch loop).
    scheduler_kind: str = "shared"
    rpc_latency_s: float = _RPC_LATENCY_S
    #: 0 = synchronous (the paper's implementation); n > 0 allows each
    #: rank n outstanding GPU tasks (the "future work" asynchronous mode).
    async_depth: int = 0
    #: Per-rank start offset modelling real MPI startup skew (ranks never
    #: hit the scheduler in perfect lockstep); 0.2 s spreads the 24 ranks
    #: over ~5 s, killing the artificial t=0 admission burst.
    stagger_s: float = 0.2
    #: Tie-breaking rule among equally ranked devices ("history" = the
    #: paper's minimum-history rule; "first" = positional, for ablation).
    #: Every ranking scheduler honours it; "random" takes only "history".
    tie_break: str = "history"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if self.n_gpus < 0:
            raise ValueError("GPU count must be non-negative")
        if self.max_queue_length < 1:
            raise ValueError("maximum queue length must be >= 1")
        if self.scheduler_kind not in (
            "shared", "client-server", "random", "weighted", "predictive"
        ):
            raise ValueError(f"unknown scheduler kind {self.scheduler_kind!r}")
        if self.tie_break not in ("history", "first"):
            raise ValueError(f"unknown tie_break {self.tie_break!r}")
        if self.scheduler_kind == "random" and self.tie_break != "history":
            raise ValueError(
                f"scheduler_kind='random' ranks no devices, so it takes no "
                f"tie_break: got tie_break={self.tie_break!r}"
            )
        if self.async_depth < 0:
            raise ValueError("async_depth must be non-negative")
        if self.stagger_s is None or not 0.0 <= self.stagger_s < np.inf:
            raise ValueError(f"stagger_s must be finite and >= 0, got {self.stagger_s!r}")
        if not 0.0 <= self.rpc_latency_s < np.inf:
            raise ValueError(f"rpc_latency_s must be finite and >= 0, got {self.rpc_latency_s!r}")
        if self.scheduler_kind != "client-server" and self.rpc_latency_s != _RPC_LATENCY_S:
            raise ValueError(
                f"scheduler_kind={self.scheduler_kind!r} makes no scheduler RPC, so it "
                f"takes no rpc_latency_s: got rpc_latency_s={self.rpc_latency_s!r}"
            )
        if self.scheduler_kind == "predictive" and self.async_depth > 0:
            raise ValueError(
                "predictive scheduling dispatches through per-device "
                "slots; async_depth applies only to direct-submit modes"
            )
        if self.devices is not None and len(self.devices) != self.n_gpus:
            raise ValueError(
                f"devices tuple has {len(self.devices)} entries for "
                f"n_gpus={self.n_gpus}"
            )


class HybridRunner:
    """Runs task lists through the simulated hybrid node.

    ``tracer`` (default: the no-op tracer) receives per-task spans with
    placement-decision attributes (queue loads, history counts, chosen
    device), queue-wait sub-spans, per-device load counters, and batch
    spans; ``scope`` names the trace process grouping the node's tracks
    (the service broker sets it to the owning worker's name).  A run's
    numbers are its :class:`RunResult` ledger; a profile of the trace is
    ``Profile.from_tracer(tracer)``.
    """

    def __init__(
        self,
        config: HybridConfig | None = None,
        tracer=None,
        scope: str = "hybrid",
        span_cost_model=None,
    ) -> None:
        self.config = config or HybridConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.scope = scope
        #: Online EWMA :class:`~repro.obs.attribution.CostModel` backing
        #: predictive placement.  ``None`` lazily seeds one from the
        #: config's device spec + the kernel-savings ledger on the first
        #: predictive batch; the broker passes its shared (possibly
        #: persisted) model so every batch prices from the same history.
        self.span_cost_model = span_cost_model

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def serial_time(self, tasks: list[Task]) -> float:
        """Wall time of the original serial APEC on this workload."""
        cost = self.config.cost
        total = 0.0
        points = set()
        for task in tasks:
            total += cost.cpu_task_serial_s(task.n_integrals, task.cpu_evals_per_integral)
            total += cost.prep_s(task.n_levels)
            points.add(task.point_index)
        return total + len(points) * cost.point_overhead_s

    def run_mpi_only(self, tasks: list[Task]) -> RunResult:
        """The pure-MPI baseline: every task on its rank's CPU."""
        cost = self.config.cost
        per_worker = self._partition(tasks)
        makespans = []
        metrics = MetricsLedger(0, self.config.max_queue_length)
        for my_tasks in per_worker:
            t = 0.0
            points = set()
            for task in my_tasks:
                points.add(task.point_index)
                t += cost.prep_s(task.n_levels)
                t += cost.cpu_task_mpi_s(task.n_integrals, task.cpu_evals_per_integral)
                metrics.on_cpu_task()
            t += len(points) * cost.point_overhead_s
            makespans.append(t)
        makespan = max(makespans) if makespans else 0.0
        metrics.finalize(makespan)
        return RunResult(
            makespan_s=makespan, metrics=metrics, n_tasks=len(tasks), mode="mpi"
        )

    # ------------------------------------------------------------------
    # The hybrid run
    # ------------------------------------------------------------------
    def run(self, tasks: list[Task]) -> RunResult:
        """Simulate the full hybrid execution; returns the run result."""
        clock = SimClock()
        handle = self.spawn_batch(tasks, clock)
        clock.run()
        if handle.alive:
            # The event heap drained with ranks still blocked.  Every job a
            # device takes ends in a result or LOST, even on a dead device,
            # so a waiter nothing will wake is a bug in the loops.
            raise RuntimeError("hybrid run stalled: stranded waiters leaked queue slots")
        result = handle.result
        assert isinstance(result, RunResult)
        return result

    def spawn_batch(self, tasks: list[Task], clock: SimClock, name: str = "batch"):
        """Start one batch as a process on an *existing* clock.

        This is the reusable per-batch entry point the service broker
        dispatches through: the batch runs embedded in the caller's
        simulation (its ranks, scheduler, and GPUs live on the shared
        clock), and the returned :class:`ProcessHandle` can be yielded
        from another process to join.  ``handle.result`` is the batch's
        :class:`RunResult`; its ``makespan_s`` is the batch's *elapsed*
        virtual time, not the absolute clock reading.  A tracer is bound to
        ``clock``: the rows the batch records read the clock it runs on.
        """
        if self.tracer.enabled:
            self.tracer.bind(clock)
        return clock.spawn(self._batch_process(tasks, clock, name), name=name)

    def _batch_process(
        self, tasks: list[Task], clock: SimClock, name: str = "batch"
    ) -> Generator:
        """Generator process executing one batch; returns its RunResult."""
        cfg = self.config
        tracer = self.tracer
        start = clock.now
        metrics = MetricsLedger(cfg.n_gpus, cfg.max_queue_length, start_time=start)
        metrics.evals_saved = sum([t.evals_saved for t in tasks])
        if tracer.enabled:
            device_tracks = [
                tracer.track(self.scope, f"gpu{d}") for d in range(cfg.n_gpus)
            ]
            batch_track = tracer.track(self.scope, "batches")
        else:
            device_tracks = [0] * cfg.n_gpus
            batch_track = 0
        # The bus is the single ingestion point: the ledger (and, when
        # tracing, the span tracer) consume the same event stream.
        bus = RunBus(metrics, tracer, device_tracks, load_rows=cfg.scheduler_kind == "predictive")
        specs = cfg.devices or tuple(cfg.device for _ in range(cfg.n_gpus))
        if cfg.scheduler_kind == "client-server":
            sched: SharedMemoryScheduler = ClientServerScheduler(
                cfg.n_gpus, cfg.max_queue_length, cfg.rpc_latency_s, bus,
                cfg.tie_break,
            )
        elif cfg.scheduler_kind == "random":
            sched = RandomScheduler(cfg.n_gpus, cfg.max_queue_length, bus)
        elif cfg.scheduler_kind == "weighted":
            reference = tasks[0] if tasks else None
            service = [
                specs[d].service_time(reference) if reference is not None else 1.0
                for d in range(cfg.n_gpus)
            ]
            sched = WeightedScheduler(
                cfg.n_gpus, cfg.max_queue_length, service, bus, cfg.tie_break
            )
        elif cfg.scheduler_kind == "predictive":
            sched = PredictiveScheduler(
                cfg.n_gpus, cfg.max_queue_length, bus, tie_break=cfg.tie_break
            )
        else:
            sched = SharedMemoryScheduler(
                cfg.n_gpus, cfg.max_queue_length, bus, tie_break=cfg.tie_break
            )
        gpus = [
            SimulatedGPU(clock, specs[d], index=d, tracer=tracer, track=device_tracks[d])
            for d in range(cfg.n_gpus)
        ]
        spectra: dict[int, np.ndarray] = {}

        dispatch = None
        if cfg.scheduler_kind == "predictive":
            if self.span_cost_model is None:
                from repro.obs.attribution import CostModel as SpanCostModel

                self.span_cost_model = SpanCostModel.from_spec(cfg.device)
            dispatch = _PredictiveDispatch(clock, sched, gpus, bus, self.span_cost_model)

        per_worker, stagger = self._partition(tasks), cfg.stagger_s
        joins = []
        for rank, my_tasks in enumerate(per_worker):
            rank_track = (
                tracer.track(self.scope, f"rank{rank}") if tracer.enabled else 0
            )
            if cfg.async_depth > 0:
                joins.append(clock.spawn(self._worker_async(
                    rank, my_tasks, clock, sched, gpus, bus, spectra, stagger,
                    rank_track,
                ), name=f"rank{rank}"))
            else:
                joins.append(Signal(f"rank{rank}.done"))
                clock.start(self._worker_sync(
                    rank, my_tasks, clock, sched, gpus, dispatch, bus, spectra,
                    stagger, joins[-1], rank_track,
                ))

        for join in joins:
            yield join
        makespan = clock.now - start
        metrics.finalize(clock.now)
        sched.validate()
        if sched.segment.total_load() != 0:
            raise RuntimeError("scheduler leaked queue slots at end of run")
        if sched.segment.total_backlog() != 0:
            raise RuntimeError("scheduler leaked predicted backlog at end of run")
        if tracer.enabled:
            tracer.span(batch_track, name, start, clock.now, cat="batch", args={
                "n_tasks": len(tasks),
                "gpu_tasks": int(metrics.gpu_tasks.sum()),
                "cpu_tasks": metrics.cpu_tasks,
                "evals_saved": metrics.evals_saved,
            })
        return RunResult(
            makespan_s=makespan, metrics=metrics, n_tasks=len(tasks), mode="hybrid",
            spectra=spectra, gpu_utilization=[g.utilization(makespan) for g in gpus],
        )

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _worker_sync(
        self, rank, my_tasks, clock, sched, gpus, dispatch, bus, spectra,
        stagger, done, rank_track=0,
    ) -> Generator:
        """One rank's task loop, for every synchronous policy.

        A policy owns two things: the hand-off of an admitted task and
        the bookkeeping at its completion.  With no ``dispatch`` the rank
        submits to the chosen device and frees the slot itself; with the
        predictive ``dispatch`` the task is priced by the online cost
        model, placed by predicted finish time and parked on the
        per-device queues (where a steal may relocate it), and the
        executing slot frees.  Either way the rank blocks on the task's
        completion, so accumulation order — and with it every spectrum
        bit — is the rank's own task order whichever device ran the task.

        The rank drives itself (:meth:`SimClock.start`): it pushes its own
        wake-ups — the two sleeps every task takes inline, as a helper
        would cost the frame this saves — hands its ``send`` to the device
        or dispatch slot as its task's waiter, and at the end fires
        ``done`` and parks.
        """
        cfg = self.config
        cost = cfg.cost
        tracer = self.tracer
        traced = tracer.enabled
        model = dispatch.model if dispatch is not None else None
        stolen = predicted = None  # per task under predictive dispatch
        # The segment's counters (one per device), which the rows copy.
        tracks, loads, histories = bus.device_tracks, sched.segment.load, sched.segment.history
        rpc = sched.rpc_latency_s
        heap, name = clock._heap, f"rank{rank}"
        prep, share = self._prep_tables(my_tasks)
        submit_s = cost.submit_overhead_s
        submit_pushed = type(submit_s) is float and 0.0 <= submit_s < inf
        send = yield
        clock.wake_after(rank * stagger, send, name)
        yield
        for task in my_tasks:
            task_started = now = clock.now
            # One span id per task: the gpusim sub-spans parent under it,
            # and it parents under whatever compiled the task (megabatch
            # group span or request root) via task.trace_parent.
            span_id = tracer.new_id() if traced else 0
            delay = prep[task.n_levels] + share[task.point_index]
            if type(delay) is float and 0.0 <= delay < inf:
                clock._seq = seq = clock._seq + 1
                heappush(heap, (now + delay, now, seq, send, None))
            else:
                clock.wake_after(delay, send, name)
            yield
            if rpc:
                clock.wake_after(rpc, send, name)
                yield
            if dispatch is None:
                device = sched.sche_alloc(clock.now)
                if traced:
                    tracer.task_alloc(rank_track, device, loads, histories, task.task_id,
                                      load_track=tracks[device] if device >= 0 else None)
            else:
                # Priced once: the table key rides on the pending entry to
                # the observe call, the ticks to every segment update.
                key, evals, predicted = model.price(task)
                ticks = sched.cost_ticks(predicted)
                device = sched.sche_alloc(clock.now, ticks=ticks)
                if traced:
                    tracer.task_alloc(rank_track, device, loads, histories, task.task_id,
                                      sched.backlog_ticks(), ticks, predicted)
            if device != NO_DEVICE:
                if submit_pushed:
                    now = clock.now
                    clock._seq = seq = clock._seq + 1
                    heappush(heap, (now + submit_s, now, seq, send, None))
                else:
                    clock.wake_after(submit_s, send, name)
                yield
                submitted_at = clock.now
                if dispatch is not None:
                    entry = dispatch.enqueue(device, task, key, evals, predicted, ticks,
                                             span_id, send)
                    payload = yield
                    stolen = device != entry.executed_device
                    device = entry.executed_device
                    started, service = entry.exec_started, entry.service_s
                    wait_s = started - submitted_at
                else:
                    price = gpus[device].spec.phase_times(task)
                    gpus[device].submit(task, span_id, price, send)
                    payload = yield
                    service = price[0] + price[1] + price[2]
                    wait_s = clock.now - submitted_at - service
                    wait_s = wait_s if wait_s > 0.0 else 0.0
                    started = submitted_at + wait_s
                if dispatch is None:  # a dispatch slot frees its own
                    if payload is not LOST:
                        bus.on_task_timing(wait_s)
                    if rpc:  # a release is a round trip, a lost task's too
                        clock.wake_after(rpc, send, name)
                        yield
                    sched.sche_free(device, clock.now)
                if payload is LOST:
                    # The device died holding the task: give back the admission
                    # and run the task on this rank's CPU — it must not vanish.
                    if dispatch is None:
                        tracer.load(tracks[device], clock.now, loads[device])
                    bus.on_admission_revoked(device)
                    device = NO_DEVICE
            if device != NO_DEVICE:
                if payload is not None:
                    self._accumulate(spectra, task, payload)
                if traced:
                    tracer.task_end(
                        rank_track, task.label or f"task{task.task_id}",
                        task_started, span_id, task.trace_parent, device,
                        wait_s, service, submitted_at, started, stolen, predicted,
                        task.task_id, None if dispatch else tracks[device], loads[device],
                    )
            else:
                bus.on_cpu_task()
                started = clock.now
                delay = cost.cpu_task_fallback_s(task.n_integrals, task.cpu_evals_per_integral)
                clock.wake_after(delay, send, name)
                yield
                self._accumulate(spectra, task, task.run_cpu())
                if traced:
                    tracer.task_end(rank_track, task.label or f"task{task.task_id}",
                                    task_started, span_id, task.trace_parent,
                                    NO_DEVICE, 0.0, started=started,
                                    task_id=task.task_id)
        done.fire(clock)
        send = entry = None  # no cycle through the frame: freed at once
        yield  # parked: nothing wakes a finished rank

    def _worker_async(
        self, rank, my_tasks, clock, sched, gpus, bus, spectra, stagger,
        rank_track=0,
    ) -> Generator:
        """Bounded-depth asynchronous submission (the future-work mode).

        The rank keeps up to ``async_depth`` GPU tasks in flight; queue
        slots are freed by completion callbacks rather than by the
        blocked rank, so the GPU never waits on host wakeups.  A callback
        frees its slot before it fires the signal the rank reaps.
        """
        cfg = self.config
        cost = cfg.cost
        tracer = self.tracer
        traced = tracer.enabled
        yield rank * stagger
        # (completion signal, task, span id) of each GPU task in flight,
        # oldest first; popleft() keeps the drain O(1) per task where a
        # list.pop(0) would shift the whole window.
        in_flight: deque = deque()
        # The segment's counters (one per device), which the rows copy.
        tracks, loads, histories = bus.device_tracks, sched.segment.load, sched.segment.history

        def on_cpu(task, span_id):
            bus.on_cpu_task()
            cpu_started = clock.now
            yield cost.cpu_task_fallback_s(task.n_integrals, task.cpu_evals_per_integral)
            self._accumulate(spectra, task, task.run_cpu())
            if traced:
                tracer.task_end(
                    rank_track, task.label or f"task{task.task_id}",
                    cpu_started, span_id, task.trace_parent, NO_DEVICE,
                    started=cpu_started, task_id=task.task_id,
                )

        def reap():
            signal, task, span_id = in_flight.popleft()
            if (yield signal) is LOST:  # on_done gave back slot and admission
                yield from on_cpu(task, span_id)

        prep, share = self._prep_tables(my_tasks)
        for task in my_tasks:
            span_id = tracer.new_id() if traced else 0
            yield prep[task.n_levels] + share[task.point_index]
            while len(in_flight) >= cfg.async_depth:
                yield from reap()
            if sched.rpc_latency_s:
                yield sched.rpc_latency_s
            device = sched.sche_alloc(clock.now)
            if traced:
                tracer.task_alloc(
                    rank_track, device, loads, histories, task.task_id,
                    load_track=tracks[device] if device >= 0 else None,
                )
            if device != NO_DEVICE:
                yield cost.submit_overhead_s
                submitted_at = clock.now
                price = gpus[device].spec.phase_times(task)
                done = Signal()

                def on_done(payload, d=device, t=task, t0=submitted_at, sid=span_id,
                            service=price[0] + price[1] + price[2], done=done):
                    sched.sche_free(d, clock.now)
                    done.fire(clock, payload)
                    if payload is LOST:  # the rank runs it on its CPU at reaping
                        tracer.load(tracks[d], clock.now, loads[d])
                        bus.on_admission_revoked(d)
                        return
                    self._accumulate(spectra, t, payload)
                    if traced:
                        # Served for its price up to now, as the sync
                        # loop reads its start.
                        tracer.task_end(
                            rank_track, t.label or f"task{t.task_id}", t0,
                            sid, t.trace_parent, d,
                            started=t0 + max(0.0, clock.now - t0 - service),
                            task_id=t.task_id, load_track=tracks[d], load=loads[d],
                        )

                gpus[device].submit(task, span_id, price, on_done)
                in_flight.append((done, task, span_id))
            else:
                yield from on_cpu(task, span_id)
        while in_flight:
            yield from reap()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _partition(self, tasks: list[Task]) -> list[list[Task]]:
        """Equal sub-spaces: rank r owns the points with index % n == r."""
        n = self.config.n_workers
        out: list[list[Task]] = [[] for _ in range(n)]
        for task in tasks:
            out[task.point_index % n].append(task)
        return out

    def _prep_tables(self, my_tasks: list[Task]) -> tuple[dict, dict]:
        """A rank's host time before each hand-off, ``prep[n_levels] +
        share[point_index]``, tabled in one pass.  APEC interleaves the
        per-point overhead (I/O, ion balance) with its task loop, so each
        task pays a share of it: a serial prelude would starve the GPUs."""
        cost = self.config.cost
        counts: dict[int, int] = {}
        prep: dict[int, float] = {}
        for task in my_tasks:
            counts[task.point_index] = counts.get(task.point_index, 0) + 1
            if task.n_levels not in prep:
                prep[task.n_levels] = cost.prep_s(task.n_levels)
        return prep, {p: cost.point_overhead_s / c for p, c in counts.items()}

    @staticmethod
    def _accumulate(spectra: dict, task: Task, payload: object) -> None:
        if payload is None:
            return
        arr = np.asarray(payload, dtype=np.float64)
        existing = spectra.get(task.point_index)
        if existing is None:
            spectra[task.point_index] = arr.copy()
        else:
            existing += arr


# ----------------------------------------------------------------------
# Predictive dispatch (measured-cost placement + work stealing)
# ----------------------------------------------------------------------
class _PendingTask:
    """One admitted task parked in a device's dispatch queue."""

    __slots__ = (
        "task", "key", "evals", "cost_s", "ticks", "span_id", "enqueued_at",
        "wake", "executed_device", "exec_started", "service_s",
    )

    def __init__(self, task, key, evals, cost_s, ticks, span_id, now, wake):
        self.task = task
        #: Table key, priced evaluation count, predicted cost and its ticks:
        #: computed once, at placement, so a free or steal moves exactly the
        #: ticks admission added.
        self.key = key
        self.evals = evals
        self.cost_s = cost_s
        self.ticks = ticks
        self.span_id = span_id
        self.enqueued_at = now
        self.wake = wake  # the owning rank's send: the entry's one waiter
        # Set by the executing dispatch slot:
        self.executed_device = -1
        self.exec_started = 0.0
        self.service_s = 0.0


class _PredictiveDispatch:
    """Per-device dispatch queues with work stealing.

    Rank workers enqueue admitted tasks here instead of submitting to
    the device directly; one :class:`_DispatchSlot` per device kernel
    slot drains its own queue head-first (FIFO — admission order,
    matching the direct-submit modes), and an idle device pulls from the
    *tail* of the pending queue with the largest summed predicted
    backlog (ties to the lowest index).  The steal
    rebalances slot + predicted ticks on the shared segment through
    :meth:`PredictiveScheduler.on_steal`, so conservation is validated
    at end of run exactly as for unstolen tasks.

    Relocating a task never changes its result — placement prices
    answers, it does not compute them — and each rank still blocks per
    task, so a steal moves when a task runs, never what it returns.
    """

    def __init__(self, clock, sched, gpus, bus, model):
        self.clock = clock
        self.sched = sched
        self.gpus = gpus
        self.bus = bus
        self.model = model
        self.pending: list[deque] = [deque() for _ in gpus]
        #: Entries over all pending queues and summed ``ticks`` of each,
        #: kept in step with them.
        self.n_pending = 0
        self.pending_ticks = [0] * len(gpus)
        #: Parked slots, in parking order; every slot starts parked.
        self._idle = [
            _DispatchSlot(self, d)
            for d, gpu in enumerate(gpus)
            for _ in range(gpu.spec.max_concurrent_kernels)
        ]

    def enqueue(
        self, device, task, key, evals, cost_s, ticks, span_id, wake
    ) -> _PendingTask:
        """Park one admitted task on ``device``'s queue and wake every
        idle slot, ``device``'s own first; ``wake`` resumes the rank.

        Waking is a same-instant event per slot, so push order decides
        who claims the entry: the owning device gets first refusal, and
        another device steals it only when the owner's slots are all busy.
        """
        clock = self.clock
        now = clock.now
        entry = _PendingTask(task, key, evals, cost_s, ticks, span_id, now, wake)
        self.pending[device].append(entry)
        self.n_pending += 1
        self.pending_ticks[device] += ticks
        idle = self._idle
        if idle:
            self._idle = []
            for owner in (True, False):
                for slot in idle:
                    if (slot.device == device) is owner:
                        clock._seq = seq = clock._seq + 1
                        heappush(clock._heap, (now, now, seq, slot._step, None))
        return entry

    def _steal_from(self, thief: int) -> _PendingTask:
        """Pull the tail task of the most-backlogged pending queue (the
        thief's own is empty, and some queue is not)."""
        best = -1
        best_ticks = 0
        for d, queue in enumerate(self.pending):
            if not queue:
                continue
            ticks = self.pending_ticks[d]
            if best < 0 or ticks > best_ticks:
                best, best_ticks = d, ticks
        entry = self.pending[best].pop()
        self.n_pending -= 1
        self.pending_ticks[best] -= entry.ticks
        self.sched.on_steal(best, thief, self.clock.now, ticks=entry.ticks)
        return entry


class _DispatchSlot:
    """One kernel slot's drain loop: own head, else steal, else park.

    A plain waiter, not a process: an enqueue wakes it with a same-instant
    ``_step(None)`` and its task's completion resumes it with the payload,
    which it hands on to the rank, in place when it may (``simclock``).
    """

    __slots__ = ("dispatch", "device", "gpu", "own", "entry")

    def __init__(self, dispatch: _PredictiveDispatch, device: int) -> None:
        self.dispatch = dispatch
        self.device = device
        self.gpu = dispatch.gpus[device]
        self.own = dispatch.pending[device]
        #: The task on the device, None while parked.
        self.entry: Optional[_PendingTask] = None

    def _step(self, payload: object = None) -> None:
        dispatch, device, entry = self.dispatch, self.device, self.entry
        sched, clock = dispatch.sched, dispatch.clock
        wake = None  # the rank, if woken in place (simclock's hand-off)
        if entry is not None:
            self.entry = None
            now = clock.now
            entry.executed_device = device
            if payload is not LOST:  # a lost task measured nothing
                entry.service_s = measured = now - entry.exec_started
                dispatch.model.observe_key(entry.key, entry.evals, measured)
                dispatch.bus.on_prediction(entry.cost_s, measured)
                dispatch.bus.on_task_timing(entry.exec_started - entry.enqueued_at)
            sched.sche_free(device, now, ticks=entry.ticks)
            heap = clock._heap
            if clock.hands_off and (not heap or heap[0][0] > now):
                wake = entry.wake
            else:
                clock._seq = seq = clock._seq + 1
                heappush(heap, (now, now, seq, entry.wake, payload))
        if self.own:
            entry = self.own.popleft()
            dispatch.n_pending -= 1
            dispatch.pending_ticks[device] -= entry.ticks
        elif (dispatch.n_pending and not self.gpu.failed
              and sched.segment.load[device] < sched.max_queue_length):
            entry = dispatch._steal_from(device)
        else:
            entry = None
            dispatch._idle.append(self)
        if entry is not None:
            self.gpu.submit(entry.task, entry.span_id, None, self._step)
            entry.exec_started = clock.now
            self.entry = entry
        if wake is not None:
            wake(payload)
