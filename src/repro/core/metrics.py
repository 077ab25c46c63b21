"""Measurement ledger behind Figs. 4-6 and Tables I-II.

Collected during a hybrid run:

- task placement counts (per device / CPU fallback) -> Fig. 5, Table I;
- time-weighted *load residency*: how long each device's load sat at each
  value 0..max -> Fig. 6 and Table I's "GPU load >= 3" column;
- per-device busy statistics and the run makespan -> Figs. 3-4;
- per-task wait/service records for deeper diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MetricsLedger", "RunResult"]


class MetricsLedger:
    """Accumulates scheduling statistics over one simulated run."""

    def __init__(
        self, n_devices: int, max_queue_length: int, start_time: float = 0.0
    ) -> None:
        if n_devices < 0 or max_queue_length < 0:
            raise ValueError("negative sizes")
        self.n_devices = n_devices
        self.max_queue_length = max_queue_length
        #: Virtual time the run began — non-zero for batches embedded in a
        #: larger simulation (the service broker), so residency intervals
        #: open at the batch start rather than at t = 0.
        self.start_time = start_time
        # The per-load-change state is plain Python lists (two updates per
        # task); ``gpu_tasks`` and ``load_residency`` hand out ndarrays.
        self._gpu_tasks = [0] * n_devices
        self.cpu_tasks = 0
        self._residency = [[0.0] * (max_queue_length + 1) for _ in range(n_devices)]
        self._last_change = [float(start_time)] * n_devices
        self._current_load = [0] * n_devices
        self.task_waits: list[float] = []
        #: Work stealing (predictive dispatch): tasks each device pulled
        #: from another queue / had pulled away.  All-zero on depth runs.
        self.steals = np.zeros(n_devices, dtype=np.int64)
        self.donations = np.zeros(n_devices, dtype=np.int64)
        #: Predicted-vs-measured service pairs from the cost model
        #: (predictive dispatch only): one (predicted_s, measured_s) per
        #: GPU-executed task, for the prediction-error histogram.
        self.predictions: list[tuple[float, float]] = []
        #: Integrand evaluations pruned by active windows across the
        #: batch's tasks (set once by the runner, folded by telemetry).
        self.evals_saved: int = 0
        self.end_time: float = 0.0

    @property
    def gpu_tasks(self) -> np.ndarray:
        """Tasks placed on each device so far: int64, shape (n_devices,)."""
        return np.array(self._gpu_tasks, dtype=np.int64)

    @property
    def load_residency(self) -> np.ndarray:
        """``[d, L]`` = virtual seconds device d spent with load exactly L:
        float64, shape (n_devices, max_queue_length + 1)."""
        return np.array(self._residency, dtype=np.float64).reshape(
            self.n_devices, self.max_queue_length + 1
        )

    # ------------------------------------------------------------------
    # Hooks called by the scheduler / runner
    # ------------------------------------------------------------------
    def on_load_change(self, device: int, old: int, new: int, now: float) -> None:
        """Close the residency interval at ``old`` and open one at ``new``."""
        self._residency[device][old] += now - self._last_change[device]
        self._last_change[device] = now
        self._current_load[device] = new
        if new > old:
            self._gpu_tasks[device] += 1

    def on_cpu_task(self) -> None:
        self.cpu_tasks += 1

    def on_admission_revoked(self, device: int) -> None:
        """Undo one GPU-task count (admission whose submit failed)."""
        if self._gpu_tasks[device] <= 0:
            raise ValueError(f"device {device} has no admissions to revoke")
        self._gpu_tasks[device] -= 1

    def on_task_timing(self, wait_s: float) -> None:
        """One GPU task's queue wait."""
        self.task_waits.append(wait_s)

    def on_steal(self, victim: int, thief: int) -> None:
        """One task moved from ``victim``'s queue to ``thief``'s.

        The thief's ``on_load_change`` rise already counted the task as
        a thief placement, so the victim hands its admission-time count
        back — total GPU task counts are conserved across steals.
        """
        if self._gpu_tasks[victim] <= 0:
            raise ValueError(f"device {victim} has no admissions to donate")
        self._gpu_tasks[victim] -= 1
        self.steals[thief] += 1
        self.donations[victim] += 1

    def on_prediction(self, predicted_s: float, measured_s: float) -> None:
        """One cost-model prediction resolved against measured service."""
        self.predictions.append((predicted_s, measured_s))

    def finalize(self, now: float) -> None:
        """Close all residency intervals at the end of the run."""
        for d in range(self.n_devices):
            self._residency[d][self._current_load[d]] += now - self._last_change[d]
            self._last_change[d] = now
        self.end_time = now

    # ------------------------------------------------------------------
    # Derived quantities (the paper's reported metrics)
    # ------------------------------------------------------------------
    @property
    def total_tasks(self) -> int:
        return sum(self._gpu_tasks) + self.cpu_tasks

    def gpu_task_ratio(self) -> float:
        """Fig. 5: tasks achieved by GPUs / total tasks."""
        total = self.total_tasks
        if total == 0:
            return 0.0
        return float(sum(self._gpu_tasks)) / total

    def load_distribution_percent(self, device: int = 0) -> np.ndarray:
        """Fig. 6: % of run time device spent at each load 0..max."""
        row = np.array(self._residency[device])
        total = row.sum()
        if total == 0.0:
            return np.zeros_like(row)
        return row / total * 100.0

    def load_at_least_ratio(self, threshold: int, device: int = 0) -> float:
        """Table I: fraction of run time with load >= ``threshold``."""
        row = np.array(self._residency[device])
        total = row.sum()
        if total == 0.0:
            return 0.0
        return float(row[threshold:].sum() / total)

    def mean_wait_s(self) -> float:
        return float(np.mean(self.task_waits)) if self.task_waits else 0.0

    @property
    def total_steals(self) -> int:
        return int(self.steals.sum())

    def prediction_errors(self) -> list[float]:
        """Relative |predicted - measured| / measured per resolved task."""
        return [
            abs(p - m) / m for p, m in self.predictions if m > 0.0
        ]

    def mean_device_load(self, device: int) -> float:
        """Time-weighted mean queue load of one device over the run."""
        row = np.array(self._residency[device])
        total = row.sum()
        if total == 0.0:
            return 0.0
        return float((row * np.arange(row.size)).sum() / total)

    def load_imbalance(self) -> float:
        """Spread of time-weighted mean loads across devices (max - min).

        0 = perfectly even residency; the gauge the predictive scheduler
        and work stealing exist to push down on skewed workloads.
        """
        if self.n_devices < 2:
            return 0.0
        means = [self.mean_device_load(d) for d in range(self.n_devices)]
        return max(means) - min(means)


@dataclass
class RunResult:
    """Outcome of one hybrid (or baseline) run."""

    makespan_s: float
    metrics: MetricsLedger
    n_tasks: int
    mode: str = "hybrid"
    #: point_index -> accumulated per-bin spectrum (real-execution runs).
    spectra: dict[int, np.ndarray] = field(default_factory=dict)
    #: Device utilizations at the end of the run.
    gpu_utilization: list[float] = field(default_factory=list)
