"""Wall-clock execution backends of the service broker's payload map.

Everything else in the reproduction measures *simulated* time on the
event clock; this package is about *real* time — running the broker's
per-launch payloads on host threads.  See :mod:`repro.parallel.executor`.
"""

from repro.parallel.executor import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    default_jobs,
    get_backend,
)

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "default_jobs",
    "get_backend",
]
