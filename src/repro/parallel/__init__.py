"""Real parallelism: the broker's payload map and the plan's ranks.

Everything else in the reproduction measures *simulated* time on the
event clock; this package is about *real* time — running the broker's
per-launch payloads on host threads (:mod:`repro.parallel.executor`)
and the grid points of ``SpectrumPlan.execute_many`` on forked rank
processes (:mod:`repro.parallel.ranks`, imported by the plan, not here).
"""

from repro.parallel.executor import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    default_jobs,
    get_backend,
    usable_cpus,
)

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "default_jobs",
    "get_backend",
    "usable_cpus",
]
