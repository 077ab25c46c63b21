"""Simulated MPI node: event engine and shared memory, plus a live runner.

The paper runs 24 MPI processes on one physical node sharing 1-4 GPUs
through POSIX shared memory.  This package provides the deterministic
stand-ins:

- :mod:`repro.cluster.simclock` — a discrete-event engine with
  generator-based processes (the "MPI ranks" of the simulation);
- :mod:`repro.cluster.sharedmem` — the shared load/history counter lists
  (the ``shmat`` segment of Algorithm 1), written only by the scheduler;
- :mod:`repro.cluster.shm` — a *real* ``multiprocessing`` runner of
  :mod:`repro.core.scheduler` on live processes and shared arrays.
"""

from repro.cluster.simclock import SimClock, Signal, ProcessHandle
from repro.cluster.sharedmem import SharedSegment

__all__ = [
    "SimClock",
    "Signal",
    "ProcessHandle",
    "SharedSegment",
]
