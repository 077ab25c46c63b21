"""The shared-memory segment of Algorithm 1.

The paper's scheduler keeps two integer arrays in POSIX shared memory —
the per-device *load* (active + waiting tasks) and the per-device *history
task count* — which MPI processes attach with ``shmat()`` and mutate with
atomic increments/decrements.

Here each array is a plain ``list[int]``, written only by
:mod:`repro.core.scheduler`'s SCHE-ALLOC, SCHE-FREE and steal, in their
own frames.  Atomicity is the event loop's: the simulation is
single-threaded and a scheduler call runs to completion inside one
event, so no other rank can observe a half-made update.  The live runner
:mod:`repro.cluster.shm` swaps load and history for ``multiprocessing``
shared arrays and makes each call under a process lock.
"""

from __future__ import annotations

__all__ = ["SharedSegment"]


class SharedSegment:
    """The full segment: one load array + one history array per node.

    Mirrors the paper's layout: "The shared memory contains two types of
    arrays, one is the load count of task queue on each device, and the
    other is the history task count of each device."

    The predictive tier adds three more arrays to the same segment:

    - ``backlog`` — per-device predicted backlog, in integer picosecond
      ticks (the sum of predicted costs of every admitted-but-unfreed
      task).  Integer ticks make occupy/steal/release exactly
      conserving: the same amount added at admission is moved by a steal
      and removed at release, so a drained device reads exactly zero.
    - ``steals`` — tasks this device pulled from another queue (thief
      counter); ``donations`` — tasks pulled *from* this device.

    Depth-only schedulers never touch them; they stay all-zero.
    """

    __slots__ = ("n_devices", "load", "history", "backlog", "steals", "donations")

    def __init__(self, n_devices: int) -> None:
        if n_devices < 0:
            raise ValueError("device count must be non-negative")
        self.n_devices = n_devices
        self.load: list[int] = [0] * n_devices
        self.history: list[int] = [0] * n_devices
        self.backlog: list[int] = [0] * n_devices
        self.steals: list[int] = [0] * n_devices
        self.donations: list[int] = [0] * n_devices

    def attach(self) -> tuple[list[int], list[int]]:
        """The ``shmat()`` of Algorithm 1: hand out the mapped arrays."""
        return self.load, self.history

    def total_load(self) -> int:
        return sum(self.load)

    def total_backlog(self) -> int:
        """Summed predicted backlog ticks across devices (0 when drained)."""
        return sum(self.backlog)

    def total_steals(self) -> int:
        return sum(self.steals)

    def validate(self, max_queue_length: int) -> None:
        """Invariant check: loads within [0, max], histories monotone >= 0."""
        for d in range(self.n_devices):
            load = self.load[d]
            if load < 0 or load > max_queue_length:
                raise ValueError(
                    f"device {d}: load {load} outside [0, {max_queue_length}]"
                )
            if self.history[d] < 0:
                raise ValueError(f"device {d}: negative history count")
            if self.backlog[d] < 0:
                raise ValueError(f"device {d}: negative predicted backlog")
            if self.steals[d] < 0 or self.donations[d] < 0:
                raise ValueError(f"device {d}: negative steal counter")
        # Steal conservation: every steal has exactly one donation.
        if self.total_steals() != sum(self.donations):
            raise ValueError("steal/donation counters out of balance")
