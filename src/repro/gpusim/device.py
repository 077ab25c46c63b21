"""Device specifications and the event-driven GPU entity.

:class:`DeviceSpec` is the analytic cost model; :class:`SimulatedGPU`
plugs it into a :class:`~repro.cluster.simclock.SimClock` as a FIFO server
(Fermi application-level context switching: "the queued tasks are
performed serially in their submission orders") or a limited-concurrency
server (Kepler Hyper-Q, up to 32 connections).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.cluster.simclock import Signal, SimClock, chain_key
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:
    from repro.core.task import Task

__all__ = ["DeviceSpec", "LOST", "SimulatedGPU", "TESLA_C2075", "TESLA_K20"]

#: A dead device's answer to each job's waiter: at once, or at the job's next event.
LOST = object()


@dataclass(frozen=True)
class DeviceSpec:
    """Static description + timing model of one GPU.

    The headline hardware numbers (SM count, clock, peak DP GFLOPS) are
    documentary; the three *calibrated* parameters that set every
    experiment's shape are ``eval_rate`` (integrand evaluations per
    second achieved by our batch kernels), ``kernel_launch_s`` and the
    PCIe pair (latency, bandwidth).
    """

    name: str
    architecture: str  # "fermi" | "kepler"
    sm_count: int
    cores_per_sm: int
    core_clock_ghz: float
    dp_gflops: float
    memory_gb: float
    pcie_bandwidth_gbs: float = 8.0  # PCIe 2.0 x16 effective
    pcie_latency_s: float = 10.0e-6
    kernel_launch_s: float = 8.0e-6
    eval_rate: float = 2.16e9  # integrand evals / s (calibrated)
    max_concurrent_kernels: int = 1
    #: Application-level context-switch cost per task.  On Fermi each MPI
    #: rank owns a separate CUDA context and "the queued tasks are
    #: performed serially in their submission orders", paying a context
    #: switch between clients; Kepler's Hyper-Q removes it.  This fixed
    #: per-task device cost is what caps the fine-grained Level
    #: granularity at roughly half the Ion speedup (Fig. 3).
    context_switch_s: float = 1.7e-3

    def __post_init__(self) -> None:
        if self.architecture not in ("fermi", "kepler"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.eval_rate <= 0 or self.pcie_bandwidth_gbs <= 0:
            raise ValueError("rates must be positive")
        if self.max_concurrent_kernels < 1:
            raise ValueError("need at least one concurrent kernel slot")

    def phase_times(self, task: Task) -> tuple[float, float, float]:
        """(ingress, compute, egress) seconds of one task — the one place
        a task is priced.  Ingress = context switch + H2D + launch; a
        PCIe transfer is its fixed latency + bytes over bandwidth, and
        free when empty."""
        bytes_in, bytes_out = task.bytes_in, task.bytes_out
        if bytes_in < 0 or bytes_out < 0:
            raise ValueError("nbytes must be non-negative")
        latency = self.pcie_latency_s
        bandwidth = self.pcie_bandwidth_gbs * 1.0e9
        return (
            self.context_switch_s
            + (latency + bytes_in / bandwidth if bytes_in else 0.0)
            + self.kernel_launch_s,
            task.n_integrals * task.evals_per_integral
            / (self.eval_rate * task.efficiency),
            latency + bytes_out / bandwidth if bytes_out else 0.0,
        )

    def service_time(self, task: Task) -> float:
        """End-to-end device time of one task.

        context switch + H2D + launch + compute + D2H.
        """
        ingress, compute, egress = self.phase_times(task)
        return ingress + compute + egress


#: The paper's card: Fermi, 448 cores @ 1.15 GHz, 515 DP GFLOPS, 6 GB,
#: PCIe 2.0, application-level context switching (serial task queue).
TESLA_C2075 = DeviceSpec(
    name="Tesla C2075",
    architecture="fermi",
    sm_count=14,
    cores_per_sm=32,
    core_clock_ghz=1.15,
    dp_gflops=515.0,
    memory_gb=6.0,
    pcie_bandwidth_gbs=8.0,
    max_concurrent_kernels=1,
)

#: Kepler with Hyper-Q: up to 32 simultaneous connections from MPI ranks,
#: no per-client context switching.
TESLA_K20 = DeviceSpec(
    name="Tesla K20",
    architecture="kepler",
    sm_count=13,
    cores_per_sm=192,
    core_clock_ghz=0.706,
    dp_gflops=1170.0,
    memory_gb=5.0,
    pcie_bandwidth_gbs=8.0,
    eval_rate=4.5e9,
    max_concurrent_kernels=32,
    context_switch_s=0.0,
)


class SimulatedGPU:
    """One GPU as a discrete-event server with phased task execution.

    A task passes through three phases:

    1. *ingress* — context switch + H2D transfer + kernel launch;
    2. *compute* — SM execution at the device's eval rate;
    3. *egress*  — D2H result transfer.

    On Fermi (``max_concurrent_kernels = 1``) the phases of consecutive
    tasks serialize entirely — application-level context switching, "the
    queued tasks are performed serially in their submission orders" — so
    :meth:`submit` pushes a task as **one** heap event keyed by
    ``chain_key`` over its three phase lengths, and its completion hands
    the result to a callable waiter in place when it may (``simclock``'s
    hand-off).  On Kepler, up to
    ``max_concurrent_kernels`` clients may be in flight at once: their
    ingress/egress phases *overlap*, but the compute phases still
    serialize through the SMs at full rate — Hyper-Q hides the
    per-client overheads, it does not multiply the silicon — and each
    phase is its own event.  (True fine-grained SM sharing would be
    processor-sharing; serializing compute at full rate has the same
    aggregate throughput and keeps the event model exact.)

    A task's ``execute`` callable runs at completion and its result is
    the payload.  A tracer (``tracer``/``track``) gets three sub-spans a
    task on the device track: ``h2d+launch``, ``compute`` and ``d2h``.
    """

    def __init__(
        self, clock: SimClock, spec: DeviceSpec, index: int = 0, tracer=None,
        track: int = 0,
    ) -> None:
        self.clock = clock
        self.spec = spec
        self.index = index
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.track = track
        # A job is (task, done or wake, parent, (ingress_s, compute_s, egress_s)):
        # priced once at submit, then carried through the three phases.
        self._waiting: deque[tuple] = deque()
        self._active = 0  # tasks in any phase
        self._serial = spec.max_concurrent_kernels == 1  # one event per task
        self._compute_queue: deque[tuple] = deque()
        self._compute_busy = False
        self.busy_time = 0.0  # any-phase-active time
        self.completed = 0
        self._busy_since: float | None = None
        self.failed = False
        self._done_name = f"gpu{index}.task"

    def fail(self) -> None:
        """Failure injection: every job held or handed over ends in :data:`LOST`."""
        self.failed = True
        while self._waiting:
            self._wake(self._waiting.popleft()[1], LOST)
        while self._compute_queue:  # held, but with no event pending
            self._complete((self._compute_queue.popleft(), 0.0, False))

    def submit(
        self,
        task: Task,
        parent: int = 0,
        price: tuple[float, float, float] | None = None,
        wake: Callable[[object], None] | None = None,
    ) -> Signal | None:
        """Queue one task; returns the signal fired with its result or LOST.

        ``parent``: the causing task span's id, which its sub-spans link to;
        ``price``: ``spec.phase_times(task)`` if the caller holds it.  A sole
        waiter (each rank loop) passes its resume as ``wake`` and gets no
        signal; the ``gpusim.device`` wall probe yields the one returned.
        """
        done = Signal(self._done_name) if wake is None else None
        job = (task, wake or done, parent, price or self.spec.phase_times(task))
        if self.failed:
            self._wake(job[1], LOST)
        elif self._active < self.spec.max_concurrent_kernels:
            self._active += 1
            clock = self.clock
            now = clock.now
            if self._busy_since is None:
                self._busy_since = now
            price = job[3]
            # A zero-length egress would be a +0 last link, which a chain
            # cannot stand for (see chain_key): that job takes the phases.
            if self._serial and price[2] > 0.0:
                fire, at = chain_key(now, price)
                clock._seq = seq = clock._seq + 1
                heappush(clock._heap, (fire, at, seq, self._complete, (job, now, True)))
            else:
                clock.call_at(price[0], self._enter_compute, (job, now))
        else:
            self._waiting.append(job)
        return done

    # Execution.  Every heap event carries (job, phase start); the start
    # time is only read when tracing.
    def _enter_compute(self, event: tuple) -> None:
        if self.failed:
            return self._complete(event + (False,))
        job, started = event
        if self.tracer.enabled:
            self.tracer.device_phase(self.track, job[2], job[0], 0, started, self.clock.now)
        self._compute_queue.append(job)
        self._pump_compute()

    def _pump_compute(self) -> None:
        if self._compute_busy or not self._compute_queue:
            return
        self._compute_busy = True
        job = self._compute_queue.popleft()
        self.clock.call_at(job[3][1], self._finish_compute, (job, self.clock.now))

    def _finish_compute(self, event: tuple) -> None:
        self._compute_busy = False
        if self.failed:  # fail() emptied the compute queue: nothing to pump
            return self._complete(event + (False,))
        job, started = event
        if self.tracer.enabled:
            self.tracer.device_phase(self.track, job[2], job[0], 1, started, self.clock.now)
        self.clock.call_at(job[3][2], self._complete, (job, self.clock.now, False))
        self._pump_compute()

    def _complete(self, event: tuple) -> None:
        job, started, whole_task = event
        self._active -= 1
        clock = self.clock
        now = clock.now
        if self._active == 0 and self._busy_since is not None:
            self.busy_time += now - self._busy_since
            self._busy_since = None
        wake = job[1]
        if self.failed:  # the result never arrives: the waiter is told so
            self._wake(wake, LOST)
            wake = None
        else:
            if self.tracer.enabled:
                if whole_task:
                    # The boundaries are the floats the per-phase events
                    # would have read off the clock.
                    computing = started + job[3][0]
                    self.tracer.device_task(self.track, job[2], job[0], started, computing,
                                            computing + job[3][1], now)
                else:
                    self.tracer.device_phase(self.track, job[2], job[0], 2, started, now)
            self.completed += 1
            payload = job[0].execute() if job[0].execute is not None else None
            heap = clock._heap
            # In place only if the +0 wake would be popped next (simclock).
            if type(wake) is Signal or (heap and heap[0][0] <= now) or not clock.hands_off:
                self._wake(wake, payload)
                wake = None
        if self._waiting:  # into the slot this task held
            task, waiter, parent, price = self._waiting.popleft()
            self.submit(task, parent, price, waiter)
        if wake is not None:
            wake(payload)

    def _wake(self, wake, payload: object) -> None:
        if type(wake) is Signal:
            wake.fire(self.clock, payload)
        else:  # the event ``Signal.fire`` would push for its one waiter
            self.clock._schedule(0.0, wake, payload)

    def utilization(self, makespan: float) -> float:
        """Fraction of the run this device had work in some phase."""
        if makespan <= 0.0:
            return 0.0
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.clock.now - self._busy_since
        return busy / makespan
