"""Execution backends of the broker's payload map: serial and thread.

One rule: ``map`` preserves submission order — results arrive as
submitted, regardless of completion order — so whatever a caller folds
over them (the broker's ion-order row accumulation, a scrape) is the same
on either backend, bit for bit.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    import concurrent.futures

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "default_jobs",
    "get_backend",
    "usable_cpus",
]

T = TypeVar("T")
R = TypeVar("R")

#: Recognized backend names, in CLI/help order.
BACKENDS: tuple[str, ...] = ("serial", "thread")


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask where the platform has one — ``taskset`` and a
    container's cpuset shrink it, ``os.cpu_count()`` ignores both.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def default_jobs() -> int:
    """Default worker count: one per usable core."""
    return usable_cpus()


class ExecutionBackend:
    """Common interface of the execution backends.

    ``map`` applies ``fn`` to every item and returns results in input
    order; ``close`` releases pooled workers (idempotent).  Backends are
    reusable across ``map`` calls — pools are created lazily on first use.
    """

    name: str = "abstract"

    @property
    def jobs(self) -> int:
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the default and the reference."""

    name = "serial"

    @property
    def jobs(self) -> int:
        return 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Thread pool: shared memory, no pickling; NumPy releases the GIL
    inside the large vectorized kernels, so real speedups are possible."""

    name = "thread"

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._jobs = jobs if jobs is not None else default_jobs()
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    @property
    def jobs(self) -> int:
        return self._jobs

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if self._pool is None:
            # Imported at first use: the plan imports this package for its
            # ranks, and a spectrum should not pay for a thread pool's
            # imports (logging, traceback: 0.3 MiB) it never starts.
            import concurrent.futures

            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self._jobs, thread_name_prefix="repro-worker"
            )
        # Executor.map yields results in submission order, independent of
        # completion order.
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def get_backend(name: str, jobs: int | None = None) -> ExecutionBackend:
    """Instantiate a backend by name (``serial`` ignores ``jobs``)."""
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(jobs)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
