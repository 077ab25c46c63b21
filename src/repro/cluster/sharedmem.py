"""The shared-memory segment of Algorithm 1.

The paper's scheduler keeps two integer arrays in POSIX shared memory —
the per-device *load* (active + waiting tasks) and the per-device *history
task count* — which MPI processes attach with ``shmat()`` and mutate with
atomic increments/decrements.

Inside the single-threaded event simulation, atomicity is trivially
guaranteed; modelling it anyway keeps the scheduler written against the
operations a real segment offers.  The live runner
:mod:`repro.cluster.shm` does not share this code: it carries its own
``_sche_alloc`` / ``_sche_free`` copy over a ``multiprocessing`` array
(ROADMAP item 4 converges the two).
"""

from __future__ import annotations

from operator import index
from typing import Iterator

import numpy as np

__all__ = ["SharedArray", "SharedSegment"]


class SharedArray:
    """An int64 array with the atomic operations Algorithm 1 relies on.

    ``cells`` is the mapped memory itself — a plain ``list[int]``, which
    is what the scheduler's scan reads after ``attach()``, as a process
    reads the array ``shmat()`` handed it.  Every *write* goes through
    the atomic operations below.
    """

    __slots__ = ("name", "cells")

    def __init__(self, size: int, name: str = "") -> None:
        if size < 1:
            raise ValueError("shared array needs at least one slot")
        self.name = name
        self.cells: list[int] = [0] * size

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, i: int) -> int:
        return self.cells[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.cells)

    def snapshot(self) -> np.ndarray:
        """A point-in-time copy (what a racing reader could observe)."""
        return np.array(self.cells, dtype=np.int64)

    def atomic_add(self, i: int, delta: int) -> int:
        """Atomically add ``delta`` to slot ``i``; returns the new value."""
        cells = self.cells
        cells[i] = new = cells[i] + index(delta)
        return new

    def atomic_cas(self, i: int, expected: int, new: int) -> bool:
        """Compare-and-swap; True when the swap happened."""
        if self.cells[i] == expected:
            self.cells[i] = index(new)
            return True
        return False

    def store(self, i: int, value: int) -> None:
        self.cells[i] = index(value)


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

    def __init__(self, n_devices: int) -> None:
        if n_devices < 0:
            raise ValueError("device count must be non-negative")
        self.n_devices = n_devices
        self.load = SharedArray(max(1, n_devices), name="load")
        self.history = SharedArray(max(1, n_devices), name="history")
        self.backlog = SharedArray(max(1, n_devices), name="backlog")
        self.steals = SharedArray(max(1, n_devices), name="steals")
        self.donations = SharedArray(max(1, n_devices), name="donations")

    def attach(self) -> tuple[SharedArray, SharedArray]:
        """The ``shmat()`` of Algorithm 1: hand out the mapped arrays."""
        return self.load, self.history

    def total_load(self) -> int:
        return sum(self.load) if self.n_devices else 0

    def total_backlog(self) -> int:
        """Summed predicted backlog ticks across devices (0 when drained)."""
        return sum(self.backlog) if self.n_devices else 0

    def total_steals(self) -> int:
        return sum(self.steals) if self.n_devices else 0

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
        if self.total_steals() != (
            sum(self.donations) if self.n_devices else 0
        ):
            raise ValueError("steal/donation counters out of balance")
