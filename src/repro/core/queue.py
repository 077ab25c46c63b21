"""Per-device task-queue state — the data structure of Section III-A.

The paper's terminology, mapped one-to-one:

- *Active task*: running on the GPU (``SimulatedGPU._running``).
- *Waiting task*: queued on the device.
- *Load*: active + waiting — the shared-memory counter this class wraps.
- *Maximum queue length*: the admission bound; a full device receives no
  further tasks.
- *History task count*: cumulative tasks ever admitted (the tie-breaker).

The counters themselves live in a :class:`~repro.cluster.sharedmem.SharedSegment`
so the scheduler manipulates exactly the arrays Algorithm 1 describes.
"""

from __future__ import annotations

from repro.cluster.sharedmem import SharedSegment

__all__ = ["TaskQueue"]


class TaskQueue:
    """View of one device's queue slots inside the shared segment."""

    def __init__(
        self, segment: SharedSegment, device_index: int, max_length: int
    ) -> None:
        if not 0 <= device_index < max(1, segment.n_devices):
            raise ValueError(
                f"device index {device_index} outside segment of "
                f"{segment.n_devices} devices"
            )
        if max_length < 1:
            raise ValueError("maximum queue length must be >= 1")
        self.segment = segment
        self.device_index = device_index
        self.max_length = max_length

    @property
    def load(self) -> int:
        """Current load: active + waiting tasks."""
        return self.segment.load.cells[self.device_index]

    @property
    def history(self) -> int:
        """History task count: total tasks ever admitted."""
        return self.segment.history.cells[self.device_index]

    @property
    def is_full(self) -> bool:
        return self.load >= self.max_length

    @property
    def backlog_ticks(self) -> int:
        """Predicted backlog of admitted tasks, integer picosecond ticks."""
        return self.segment.backlog.cells[self.device_index]

    def occupy(self, cost_ticks: int = 0) -> int:
        """Admit one task: load++ and history++ in one atomic step;
        returns the new load.

        Mirrors the paper: "the scheduler will increase the current load
        value of the GPU by one in an atomic operation" together with the
        history count.  ``cost_ticks`` (the predictive tier) adds the
        task's predicted cost to the device's backlog in the same step;
        the caller must release (or transfer) the identical amount.
        """
        if cost_ticks < 0:
            raise ValueError("cost_ticks must be non-negative")
        new_load = self.segment.load.atomic_add(self.device_index, 1)
        self.segment.history.atomic_add(self.device_index, 1)
        if new_load > self.max_length:
            # Roll back and fail loudly: an admission beyond the bound
            # means the caller skipped the is_full check (a logic bug).
            self.segment.load.atomic_add(self.device_index, -1)
            self.segment.history.atomic_add(self.device_index, -1)
            raise RuntimeError(
                f"device {self.device_index}: admission beyond max queue "
                f"length {self.max_length}"
            )
        if cost_ticks:
            self.segment.backlog.atomic_add(self.device_index, cost_ticks)
        return new_load

    def release(self, cost_ticks: int = 0) -> int:
        """Task finished: load-- (history is monotone, never decremented);
        returns the new load."""
        if cost_ticks < 0:
            raise ValueError("cost_ticks must be non-negative")
        new_load = self.segment.load.atomic_add(self.device_index, -1)
        if new_load < 0:
            self.segment.load.atomic_add(self.device_index, 1)
            raise RuntimeError(
                f"device {self.device_index}: release without matching occupy"
            )
        if cost_ticks:
            new_backlog = self.segment.backlog.atomic_add(
                self.device_index, -cost_ticks
            )
            if new_backlog < 0:
                self.segment.backlog.atomic_add(self.device_index, cost_ticks)
                self.segment.load.atomic_add(self.device_index, 1)
                raise RuntimeError(
                    f"device {self.device_index}: backlog release exceeds "
                    f"admitted cost"
                )
        return new_load

    def transfer_to(self, thief: "TaskQueue", cost_ticks: int = 0) -> None:
        """Move one admitted task's slot (and backlog) to ``thief``.

        The work-stealing bookkeeping: the victim's load and backlog
        drop, the thief's rise, and the steal/donation counters advance
        — all on the shared segment, so conservation is checkable
        (``total_load``/``total_backlog`` are unchanged by a transfer).
        History does not move: it records where the scheduler *admitted*
        the task, and steals are a dispatch-level rebalance.
        """
        if thief.segment is not self.segment:
            raise ValueError("steal across segments")
        if thief.device_index == self.device_index:
            raise ValueError("device cannot steal from itself")
        if cost_ticks < 0:
            raise ValueError("cost_ticks must be non-negative")
        if self.load < 1:
            raise RuntimeError(
                f"device {self.device_index}: steal from an empty queue"
            )
        if thief.is_full:
            raise RuntimeError(
                f"device {thief.device_index}: steal beyond max queue length"
            )
        self.segment.load.atomic_add(self.device_index, -1)
        self.segment.load.atomic_add(thief.device_index, 1)
        if cost_ticks:
            self.segment.backlog.atomic_add(self.device_index, -cost_ticks)
            self.segment.backlog.atomic_add(thief.device_index, cost_ticks)
        self.segment.donations.atomic_add(self.device_index, 1)
        self.segment.steals.atomic_add(thief.device_index, 1)
