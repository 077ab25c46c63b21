"""repro — reproduction of "Accelerating Spectral Calculation through
Hybrid GPU-based Computing" (Xiao et al., ICPP 2015).

The package rebuilds the paper's full stack in Python:

- :mod:`repro.atomic` — synthetic ATOMDB-like database (496 ions);
- :mod:`repro.quadrature` — Simpson / Romberg / Gauss-Kronrod / QAGS and
  their vectorized batch forms (the "GPU kernels");
- :mod:`repro.physics` — Eq. (1) RRC emissivity, CIE ion balance, and the
  serial APEC-style calculator;
- :mod:`repro.gpusim` — simulated Fermi/Kepler GPUs with calibrated
  launch / transfer / compute costs;
- :mod:`repro.cluster` — discrete-event node (MPI ranks, shared memory)
  plus a live ``multiprocessing`` runner;
- :mod:`repro.core` — the paper's contribution: the shared-memory
  dynamic load-balancing scheduler (Algorithm 1), task granularity
  (Algorithm 2), the hybrid runner, auto-tuning and metrics;
- :mod:`repro.nei` — the NEI adaptability study (stiff ODEs, LSODA-style
  solver, Table II workload).

Quick start::

    from repro import HybridConfig, HybridRunner, WorkloadSpec, build_tasks

    tasks = build_tasks(WorkloadSpec())             # 24 points x 496 ions
    runner = HybridRunner(HybridConfig(n_gpus=3))   # 24 ranks + 3 C2075s
    result = runner.run(tasks)
    print(result.makespan_s, result.metrics.gpu_task_ratio())
"""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.core.calibration": ("CostModel",),
    "repro.core.granularity": ("Granularity", "WorkloadSpec", "build_tasks"),
    "repro.core.hybrid": ("HybridConfig", "HybridRunner"),
    "repro.core.metrics": ("MetricsLedger", "RunResult"),
    "repro.core.scheduler": ("SharedMemoryScheduler",),
    "repro.core.task": ("Task", "TaskKind"),
    "repro.core.autotune": ("autotune_queue_length",),
    "repro.gpusim.device": ("DeviceSpec", "TESLA_C2075", "TESLA_K20"),
    "repro.physics.spectrum": ("EnergyGrid", "Spectrum"),
    "repro.physics.apec": ("GridPoint", "SerialAPEC"),
})

__version__ = "1.0.0"
