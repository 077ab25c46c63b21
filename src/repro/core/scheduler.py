"""Algorithm 1: the dynamic load-balancing scheduler.

``SCHE-ALLOC`` scans the shared load array for the least-loaded device,
breaking ties by the smallest *history task count*; if that minimum load
is below the maximum queue length the slot is occupied and the device
index returned, otherwise -1 ("all GPUs are busy") and the caller runs
the task on its own CPU with the traditional QAGS routine.

Every scheduler reads and writes the segment's five counter lists
(:class:`~repro.cluster.sharedmem.SharedSegment`) in its own frame: an
admission, a release and a steal are each a few list reads plus the
writes, with every check that can fire made before the first write, so a
refused call leaves the segment as it was.  The bound on a device's load
is checked by the scan that picks it; ``validate()`` rechecks every
bound at the end of a run.

Variants:

- :class:`SharedMemoryScheduler` — the paper's design: scheduling is a
  few shared-memory reads plus one update, effectively free.
- :class:`ClientServerScheduler` — the MPS-style ablation: identical
  policy, but every alloc/free round-trips through a scheduler server
  with a configurable RPC latency, reproducing the overhead argument the
  paper makes against client-server architectures for small tasks.
- :class:`RandomScheduler`, :class:`WeightedScheduler` and
  :class:`PredictiveScheduler` — the policy baseline, the speed-aware
  rule and measured-cost placement with work stealing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.sharedmem import SharedSegment
from repro.core.metrics import MetricsLedger

__all__ = [
    "NO_DEVICE",
    "TICKS_PER_S",
    "SharedMemoryScheduler",
    "ClientServerScheduler",
    "RandomScheduler",
    "WeightedScheduler",
    "PredictiveScheduler",
]

#: Sentinel returned by SCHE-ALLOC when every queue is at full load.
NO_DEVICE: int = -1

#: Backlog accounting resolution: picoseconds per virtual second — the
#: same tick the attribution ledger uses, so predicted costs conserve
#: exactly through occupy/steal/release integer arithmetic.
TICKS_PER_S: int = 10**12

class SharedMemoryScheduler:
    """The shared-memory scheduler of Section III-A / Algorithm 1."""

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        metrics: Optional[MetricsLedger] = None,
        tie_break: str = "history",
    ) -> None:
        if n_devices < 0:
            raise ValueError("device count must be non-negative")
        if max_queue_length < 1:
            raise ValueError("maximum queue length must be >= 1")
        if tie_break not in ("history", "first"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.n_devices = n_devices
        self.max_queue_length = max_queue_length
        self.segment = SharedSegment(n_devices)
        self.metrics = metrics
        #: "history" (the paper: minimum history count wins ties) or
        #: "first" (first device at the minimum load — the ablation).
        self.tie_break = tie_break

    #: Scheduling cost charged to the caller (none: shared memory).
    rpc_latency_s: float = 0.0

    def sche_alloc(self, now: float = 0.0) -> int:
        """Algorithm 1 SCHE-ALLOC: pick a device or return ``NO_DEVICE``.

        Scan order follows the pseudocode: track the minimum load; among
        devices tied at the minimum, prefer the smallest history count.
        Admission is load++ and history++ on the winner.
        """
        if self.n_devices == 0:
            return NO_DEVICE
        load, history = self.segment.load, self.segment.history
        best = 0
        l_min = load[0]
        h_min = history[0]
        use_history = self.tie_break == "history"
        for d in range(1, self.n_devices):
            l_d = load[d]
            h_d = history[d]
            if l_d < l_min or (use_history and l_d == l_min and h_d < h_min):
                best, l_min, h_min = d, l_d, h_d
        if l_min >= self.max_queue_length:
            return NO_DEVICE
        load[best] = l_min + 1
        history[best] = h_min + 1
        if self.metrics is not None:
            self.metrics.on_load_change(best, l_min, l_min + 1, now)
        return best

    def sche_free(self, device: int, now: float = 0.0) -> None:
        """Algorithm 1 SCHE-FREE: release the slot after completion
        (load--; history is monotone, never decremented)."""
        if not 0 <= device < self.n_devices:
            raise ValueError(f"device {device} out of range")
        load = self.segment.load
        new_load = load[device] - 1
        if new_load < 0:
            raise RuntimeError(f"device {device}: release without matching occupy")
        load[device] = new_load
        if self.metrics is not None:
            self.metrics.on_load_change(device, new_load + 1, new_load, now)

    def _occupy(self, device: int, now: float) -> None:
        """Admit one task on ``device``, which the caller's scan found
        below the bound: load++ and history++."""
        segment = self.segment
        old_load = segment.load[device]
        segment.load[device] = old_load + 1
        segment.history[device] += 1
        if self.metrics is not None:
            self.metrics.on_load_change(device, old_load, old_load + 1, now)

    def loads(self) -> list[int]:
        return self.segment.load[: self.n_devices]

    def histories(self) -> list[int]:
        return self.segment.history[: self.n_devices]

    def validate(self) -> None:
        self.segment.validate(self.max_queue_length)


class ClientServerScheduler(SharedMemoryScheduler):
    """MPS-like ablation: same policy, paid per-request RPC latency.

    The paper: "the client-server architecture will introduce much extra
    overhead if each task is fast and scheduling is quite frequent like in
    the spectral calculation."  Workers must stall ``rpc_latency_s`` on
    every alloc *and* every free; with ~12k tasks and two RPCs each, a
    500 us round-trip already costs ~12 s of pure scheduling.
    """

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        rpc_latency_s: float = 5.0e-4,
        metrics: Optional[MetricsLedger] = None,
        tie_break: str = "history",
    ) -> None:
        super().__init__(n_devices, max_queue_length, metrics, tie_break)
        if not 0.0 <= rpc_latency_s < float("inf"):
            raise ValueError(f"rpc_latency_s must be finite and >= 0, got {rpc_latency_s!r}")
        self.rpc_latency_s = rpc_latency_s


class RandomScheduler(SharedMemoryScheduler):
    """Policy baseline: uniform-random placement among non-full devices.

    Ablation target for Algorithm 1's min-load rule.  Admission still
    respects the maximum queue length (otherwise nothing would bound GPU
    backlog), but the *choice* among admissible devices is random, so the
    queue-length distribution across devices is unmanaged and no
    tie-break applies.  Deterministic via an internal seeded generator.
    """

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        metrics: Optional[MetricsLedger] = None,
        seed: int = 20150413,
    ) -> None:
        super().__init__(n_devices, max_queue_length, metrics)
        import numpy as np

        self._rng = np.random.default_rng(seed)

    def sche_alloc(self, now: float = 0.0) -> int:
        if self.n_devices == 0:
            return NO_DEVICE
        load, _history = self.segment.attach()
        admissible = [
            d for d in range(self.n_devices) if load[d] < self.max_queue_length
        ]
        if not admissible:
            return NO_DEVICE
        best = int(self._rng.choice(admissible))
        self._occupy(best, now)
        return best


class WeightedScheduler(SharedMemoryScheduler):
    """Speed-aware placement — the paper's future-work improvement.

    The conclusion promises "an improved scheme for load balancing"; the
    heterogeneity ablation shows why: Algorithm 1's min-load rule is
    blind to device speed, so a mixed fleet queues equal task *counts* on
    unequal devices and the slow card gates the makespan.

    The fix keeps the shared-memory structure and the queue bound but
    ranks devices by *expected backlog time* — load x expected service
    time — instead of raw load.  With equal weights it reduces exactly to
    Algorithm 1 under either tie-break, so it is a strict
    generalization.
    """

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        service_s: Sequence[float],
        metrics: Optional[MetricsLedger] = None,
        tie_break: str = "history",
    ) -> None:
        super().__init__(n_devices, max_queue_length, metrics, tie_break)
        service = list(service_s)
        if len(service) != n_devices:
            raise ValueError(
                f"need one service time per device, got {len(service)} "
                f"for {n_devices}"
            )
        if any(s <= 0.0 for s in service):
            raise ValueError("service times must be positive")
        self.service_s = service

    def sche_alloc(self, now: float = 0.0) -> int:
        if self.n_devices == 0:
            return NO_DEVICE
        load, history = self.segment.attach()
        use_history = self.tie_break == "history"
        best = -1
        best_backlog = float("inf")
        best_history = 0
        for d in range(self.n_devices):
            l_d = load[d]
            if l_d >= self.max_queue_length:
                continue
            # Backlog the *new* task would see, in seconds.
            backlog = (l_d + 1) * self.service_s[d]
            h_d = history[d]
            if backlog < best_backlog or (
                use_history and backlog == best_backlog and h_d < best_history
            ):
                best, best_backlog, best_history = d, backlog, h_d
        if best < 0:
            return NO_DEVICE
        self._occupy(best, now)
        return best


class PredictiveScheduler(SharedMemoryScheduler):
    """Measured-cost placement: minimize *predicted* finish time.

    :class:`WeightedScheduler` fixed the device axis of Algorithm 1's
    blindness (unequal devices); this scheduler fixes the task axis —
    unequal *tasks*.  The shared segment gains a per-device ``backlog``
    array holding the summed predicted cost (integer picosecond ticks)
    of every admitted task, maintained by the caller passing each task's
    predicted cost (from the online EWMA
    :class:`~repro.obs.attribution.CostModel`) to ``sche_alloc`` /
    ``sche_free``.  SCHE-ALLOC places the task on the device whose
    backlog-plus-new-cost is smallest, history tie-break unchanged — so
    with equal costs it reduces exactly to Algorithm 1 (backlog is then
    load x cost).

    The CPU fallback is Algorithm 1's: a task goes to the CPU when every
    queue is at the slot cap.

    ``on_steal`` is the work-stealing transfer: an idle device pulls one
    admitted task from a loaded victim, moving its slot and predicted
    backlog on the segment in one call (conservation is validated at end
    of run — no slot or tick is lost or duplicated).
    """

    @staticmethod
    def cost_ticks(cost_s: float) -> int:
        """A predicted cost in the segment's integer tick resolution."""
        if cost_s < 0.0:
            raise ValueError("predicted cost must be non-negative")
        return int(round(cost_s * TICKS_PER_S))

    def sche_alloc(
        self, now: float = 0.0, cost_s: float = 0.0, ticks: Optional[int] = None
    ) -> int:
        """Place one task of predicted cost ``cost_s`` (seconds).

        Scans for the minimum predicted finish time (device backlog +
        this task's cost), history tie-break among exact tick ties; the
        new cost is added to the winner's backlog in the same admission
        step.  Returns ``NO_DEVICE`` when every queue is at the slot cap.

        ``ticks``, here and in :meth:`sche_free` / :meth:`on_steal`, is
        the same cost already converted by :meth:`cost_ticks`: a caller
        that converts once per task and carries the integer passes it
        instead of ``cost_s``.
        """
        if self.n_devices == 0:
            return NO_DEVICE
        if ticks is None:
            ticks = self.cost_ticks(cost_s)
        elif ticks < 0:
            raise ValueError("cost ticks must be non-negative")
        segment = self.segment
        load, history, backlog = segment.load, segment.history, segment.backlog
        max_load = self.max_queue_length
        use_history = self.tie_break == "history"
        best = -1
        best_finish = 0
        best_history = 0
        for d in range(self.n_devices):
            if load[d] >= max_load:
                continue
            finish = backlog[d] + ticks
            h_d = history[d]
            if (
                best < 0
                or finish < best_finish
                or (use_history and finish == best_finish and h_d < best_history)
            ):
                best, best_finish, best_history = d, finish, h_d
        if best < 0:
            return NO_DEVICE
        old_load = load[best]
        load[best] = old_load + 1
        history[best] = best_history + 1
        backlog[best] = best_finish
        if self.metrics is not None:
            self.metrics.on_load_change(best, old_load, old_load + 1, now)
        return best

    def sche_free(
        self,
        device: int,
        now: float = 0.0,
        cost_s: float = 0.0,
        ticks: Optional[int] = None,
    ) -> None:
        """Release one slot, removing the cost admitted for the task.

        ``cost_s`` must be the value passed to the matching
        ``sche_alloc`` (or carried through ``on_steal``) — the tick
        conversion is deterministic, so the backlog returns to exactly
        what it was.  A release below zero load or backlog raises and
        leaves the segment unchanged.
        """
        if not 0 <= device < self.n_devices:
            raise ValueError(f"device {device} out of range")
        if ticks is None:
            ticks = self.cost_ticks(cost_s)
        elif ticks < 0:
            raise ValueError("cost ticks must be non-negative")
        segment = self.segment
        load, backlog = segment.load, segment.backlog
        new_load = load[device] - 1
        if new_load < 0:
            raise RuntimeError(f"device {device}: release without matching occupy")
        new_backlog = backlog[device] - ticks
        if new_backlog < 0:
            raise RuntimeError(
                f"device {device}: backlog release exceeds admitted cost"
            )
        load[device] = new_load
        backlog[device] = new_backlog
        if self.metrics is not None:
            self.metrics.on_load_change(device, new_load + 1, new_load, now)

    def on_steal(
        self,
        victim: int,
        thief: int,
        now: float = 0.0,
        cost_s: float = 0.0,
        ticks: Optional[int] = None,
    ) -> None:
        """Transfer one admitted task's slot + backlog from victim to thief.

        The victim's load and backlog drop, the thief's rise, and the
        steal/donation counters advance, so ``total_load`` and
        ``total_backlog`` are unchanged.  History does not move: it
        records where the scheduler *admitted* the task, and a steal is a
        dispatch-level rebalance.  A steal from an empty queue, into a
        full one, or of more ticks than the victim holds raises and
        leaves the segment unchanged.
        """
        for d in (victim, thief):
            if not 0 <= d < self.n_devices:
                raise ValueError(f"device {d} out of range")
        if victim == thief:
            raise ValueError("device cannot steal from itself")
        if ticks is None:
            ticks = self.cost_ticks(cost_s)
        elif ticks < 0:
            raise ValueError("cost ticks must be non-negative")
        segment = self.segment
        load, backlog = segment.load, segment.backlog
        victim_old = load[victim]
        thief_old = load[thief]
        if victim_old < 1:
            raise RuntimeError(f"device {victim}: steal from an empty queue")
        if thief_old >= self.max_queue_length:
            raise RuntimeError(f"device {thief}: steal beyond max queue length")
        if backlog[victim] < ticks:
            raise RuntimeError(
                f"device {victim}: steal exceeds the victim's admitted cost"
            )
        load[victim] = victim_old - 1
        load[thief] = thief_old + 1
        backlog[victim] -= ticks
        backlog[thief] += ticks
        segment.donations[victim] += 1
        segment.steals[thief] += 1
        if self.metrics is not None:
            self.metrics.on_load_change(victim, victim_old, victim_old - 1, now)
            self.metrics.on_load_change(thief, thief_old, thief_old + 1, now)
            self.metrics.on_steal(victim, thief)

    def backlog_ticks(self) -> list[int]:
        """Predicted backlog per device, in integer ticks."""
        return self.segment.backlog[: self.n_devices]
