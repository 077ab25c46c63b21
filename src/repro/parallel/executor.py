"""How many CPUs this process may run on — what the rank pool sizes by."""

from __future__ import annotations

import os

__all__ = ["usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask where the platform has one — ``taskset`` and a
    container's cpuset shrink it, ``os.cpu_count()`` ignores both.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
