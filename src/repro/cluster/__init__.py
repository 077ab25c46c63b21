"""Simulated MPI node: event engine, shared memory, message passing.

The paper runs 24 MPI processes on one physical node sharing 1-4 GPUs
through POSIX shared memory.  This package provides the deterministic
stand-ins:

- :mod:`repro.cluster.simclock` — a discrete-event engine with
  generator-based processes (the "MPI ranks" of the simulation);
- :mod:`repro.cluster.sharedmem` — the shared load/history counter lists
  (the ``shmat`` segment of Algorithm 1), written only by the scheduler;
- :mod:`repro.cluster.mpi` — a miniature message-passing layer (send /
  recv / bcast / scatter / gather) over the event engine;
- :mod:`repro.cluster.shm` — a *real* ``multiprocessing`` shared-memory
  runner of Algorithm 1 on live processes, with its own copy of
  SCHE-ALLOC / SCHE-FREE rather than :mod:`repro.core.scheduler`'s
  (ROADMAP item 4 converges them).
"""

from repro.cluster.simclock import SimClock, Signal, Interrupt, ProcessHandle
from repro.cluster.sharedmem import SharedSegment
from repro.cluster.mpi import MiniComm

__all__ = [
    "SimClock",
    "Signal",
    "Interrupt",
    "ProcessHandle",
    "SharedSegment",
    "MiniComm",
]
