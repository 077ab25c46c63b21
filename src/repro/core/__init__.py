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

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.core.task": ("Task", "TaskKind"),
    "repro.core.scheduler": ("SharedMemoryScheduler", "ClientServerScheduler", "NO_DEVICE"),
    "repro.core.calibration": ("CostModel",),
    "repro.core.granularity": ("Granularity", "WorkloadSpec", "build_tasks"),
    "repro.core.metrics": ("MetricsLedger", "RunResult"),
    "repro.core.hybrid": ("HybridConfig", "HybridRunner"),
    "repro.core.autotune": ("autotune_queue_length",),
})
