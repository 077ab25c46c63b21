"""Host fingerprint carried by every result file.

Wall-clock numbers are only comparable between runs on like hosts; the
fingerprint lets ``compare.py`` say so, and the load average lets it
mark timing rows ``unresolved`` when something else was using the cores.
"""

from __future__ import annotations

import os
import platform
import sys

#: glibc malloc tunables that change the page-fault cost of NumPy
#: temporaries (the heap-history effect the README describes), plus the
#: BLAS thread caps.
ENV_VARS = (
    "MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_TOP_PAD_", "GLIBC_TUNABLES", "PYTHONMALLOC",
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_1m() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def blas_build() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint() -> dict:
    """Everything but the load average (taken by the caller, once, before
    it starts any work of its own)."""
    import numpy as np

    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_build(),
        "env": {name: os.environ[name] for name in ENV_VARS if name in os.environ},
    }
