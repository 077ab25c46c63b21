"""MetricsLedger: residency accounting and derived quantities."""

import numpy as np
import pytest

from repro.core.metrics import MetricsLedger


class TestLoadResidency:
    def test_residency_integrates_to_makespan(self):
        m = MetricsLedger(n_devices=1, max_queue_length=4)
        m.on_load_change(0, 0, 1, now=1.0)
        m.on_load_change(0, 1, 2, now=2.0)
        m.on_load_change(0, 2, 1, now=5.0)
        m.on_load_change(0, 1, 0, now=6.0)
        m.finalize(10.0)
        assert m.load_residency[0].sum() == pytest.approx(10.0)
        assert m.load_residency[0, 0] == pytest.approx(1.0 + 4.0)
        assert m.load_residency[0, 1] == pytest.approx(1.0 + 1.0)
        assert m.load_residency[0, 2] == pytest.approx(3.0)

    def test_distribution_percent_sums_to_100(self):
        m = MetricsLedger(1, 3)
        m.on_load_change(0, 0, 1, 2.0)
        m.finalize(4.0)
        dist = m.load_distribution_percent(0)
        assert dist.sum() == pytest.approx(100.0)

    def test_distribution_empty_run(self):
        m = MetricsLedger(1, 3)
        m.finalize(0.0)
        assert np.all(m.load_distribution_percent(0) == 0.0)

    def test_load_at_least_ratio(self):
        m = MetricsLedger(1, 4)
        m.on_load_change(0, 0, 3, 0.0)
        m.on_load_change(0, 3, 0, 4.0)
        m.finalize(10.0)
        assert m.load_at_least_ratio(3) == pytest.approx(0.4)
        assert m.load_at_least_ratio(1) == pytest.approx(0.4)
        assert m.load_at_least_ratio(0) == pytest.approx(1.0)


class TestArrayViews:
    """``gpu_tasks`` / ``load_residency`` / ``steals`` / ``donations`` are
    ndarrays of the documented dtype and shape whenever they are read —
    telemetry, the Prometheus registry and the CLI index and sum them."""

    @staticmethod
    def _check(m, n_devices, max_len):
        assert isinstance(m.gpu_tasks, np.ndarray)
        assert m.gpu_tasks.dtype == np.int64 and m.gpu_tasks.shape == (n_devices,)
        assert isinstance(m.load_residency, np.ndarray)
        assert m.load_residency.dtype == np.float64
        assert m.load_residency.shape == (n_devices, max_len + 1)
        for counts in (m.steals, m.donations):
            assert isinstance(counts, np.ndarray)
            assert counts.dtype == np.int64 and counts.shape == (n_devices,)

    def test_mid_run_and_after_finalize(self):
        m = MetricsLedger(n_devices=2, max_queue_length=3, start_time=1.0)
        self._check(m, 2, 3)
        m.on_load_change(0, 0, 1, now=1.5)
        m.on_load_change(1, 0, 1, now=2.0)
        m.on_steal(victim=1, thief=0)
        self._check(m, 2, 3)
        assert m.gpu_tasks.tolist() == [1, 0]
        assert m.load_residency[0, 0] == 0.5 and m.load_residency[1, 0] == 1.0
        m.finalize(4.0)
        self._check(m, 2, 3)
        assert m.load_residency.sum(axis=1).tolist() == [3.0, 3.0]
        assert int(m.gpu_tasks.sum()) == m.total_tasks == 1

    def test_reads_are_snapshots(self):
        m = MetricsLedger(1, 2)
        seen = m.load_residency
        seen[0, 0] = 99.0
        m.on_load_change(0, 0, 1, now=1.0)
        assert m.load_residency[0, 0] == 1.0

    def test_zero_devices_keeps_no_row(self):
        """A CPU-only run has no device to report on, not a phantom one."""
        m = MetricsLedger(0, 4)
        self._check(m, 0, 4)
        m.on_cpu_task()
        m.finalize(1.0)
        self._check(m, 0, 4)
        assert m.load_imbalance() == 0.0 and m.gpu_task_ratio() == 0.0
        with pytest.raises(IndexError):
            m.load_distribution_percent(0)
        with pytest.raises(IndexError):
            m.on_load_change(0, 0, 1, 0.5)


class TestTaskCounting:
    def test_gpu_tasks_counted_on_load_increase_only(self):
        m = MetricsLedger(2, 4)
        m.on_load_change(0, 0, 1, 0.0)  # +1 task
        m.on_load_change(0, 1, 0, 1.0)  # release: not a task
        m.on_load_change(1, 0, 1, 1.0)
        assert list(m.gpu_tasks) == [1, 1]

    def test_ratio(self):
        m = MetricsLedger(1, 4)
        m.on_load_change(0, 0, 1, 0.0)
        m.on_cpu_task()
        assert m.gpu_task_ratio() == pytest.approx(0.5)
        assert m.total_tasks == 2

    def test_ratio_empty(self):
        assert MetricsLedger(1, 4).gpu_task_ratio() == 0.0

    def test_wait_statistics(self):
        m = MetricsLedger(1, 4)
        m.on_task_timing(wait_s=1.0)
        m.on_task_timing(wait_s=3.0)
        assert m.mean_wait_s() == pytest.approx(2.0)
        assert MetricsLedger(1, 4).mean_wait_s() == 0.0
