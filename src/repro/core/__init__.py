"""The paper's contribution: hybrid CPU/GPU scheduling of small tasks.

- :mod:`repro.core.task` — task descriptors (Ion / Level / NEI-chunk).
- :mod:`repro.core.scheduler` — Algorithm 1 (SCHE-ALLOC / SCHE-FREE) over
  the shared segment's load and history counters, plus the client-server
  (MPS-like) ablation variant.
- :mod:`repro.core.granularity` — packing integrals into tasks at ion /
  level / element granularity.
- :mod:`repro.core.calibration` — the cost model tying simulated seconds
  to the paper's measured constants.
- :mod:`repro.core.hybrid` — the end-to-end hybrid runner (the Fig. 2
  architecture) over the discrete-event cluster.
- :mod:`repro.core.metrics` — task ratios, load-residency histograms and
  the timing ledger behind Figs. 4-6 and Table I.
- :mod:`repro.core.autotune` — the automatic maximum-queue-length search.
"""

from repro.core.task import Task, TaskKind
from repro.core.scheduler import (
    SharedMemoryScheduler,
    ClientServerScheduler,
    NO_DEVICE,
)
from repro.core.calibration import CostModel
from repro.core.granularity import Granularity, WorkloadSpec, build_tasks
from repro.core.metrics import MetricsLedger, RunResult
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.autotune import autotune_queue_length

__all__ = [
    "Task",
    "TaskKind",
    "SharedMemoryScheduler",
    "ClientServerScheduler",
    "NO_DEVICE",
    "CostModel",
    "Granularity",
    "WorkloadSpec",
    "build_tasks",
    "MetricsLedger",
    "RunResult",
    "HybridConfig",
    "HybridRunner",
    "autotune_queue_length",
]
