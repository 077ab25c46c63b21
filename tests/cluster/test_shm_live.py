"""The live multiprocessing runner (real processes, real shared memory)."""

import time

import numpy as np
import pytest

from repro.cluster.shm import LiveHybridRunner, LiveTask, rrc_like_integrand
from repro.core.scheduler import SharedMemoryScheduler


def make_tasks(n_tasks=8, n_bins=50):
    edges = np.linspace(0.3, 2.0, n_bins + 1)
    return [
        LiveTask(task_id=i, lo=edges[:-1], hi=edges[1:], edge=0.5, kt=0.8)
        for i in range(n_tasks)
    ]


def analytic_total(task: LiveTask) -> float:
    lo = max(float(task.lo[0]), task.edge)
    hi = float(task.hi[-1])
    return task.scale * task.kt * (1.0 - np.exp(-(hi - task.edge) / task.kt))


class TestLiveTask:
    def test_gpu_and_cpu_paths_agree(self):
        task = make_tasks(1)[0]
        gpu = task.gpu_compute()
        cpu = task.cpu_compute()
        nz = cpu != 0.0
        assert np.allclose(gpu[nz], cpu[nz], rtol=1e-9)

    def test_totals_match_analytic(self):
        task = make_tasks(1)[0]
        assert task.gpu_compute().sum() == pytest.approx(analytic_total(task), rel=1e-10)

    def test_integrand_factory(self):
        f = rrc_like_integrand(edge=1.0, kt=0.5, scale=2.0)
        x = np.array([0.5, 1.0, 1.5])
        vals = f(x)
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(2.0)
        assert vals[2] == pytest.approx(2.0 * np.exp(-1.0))

    @pytest.mark.parametrize("pieces", [0, 3, -2])
    def test_pieces_must_be_a_positive_even_integer(self, pieces):
        edges = np.linspace(0.3, 2.0, 5)
        with pytest.raises(ValueError, match="positive even"):
            LiveTask(task_id=0, lo=edges[:-1], hi=edges[1:], pieces=pieces)

    def test_lo_and_hi_must_share_a_shape(self):
        edges = np.linspace(0.3, 2.0, 5)
        with pytest.raises(ValueError, match="shape"):
            LiveTask(task_id=0, lo=edges[:-1], hi=edges[2:])


@pytest.mark.slow
class TestLiveHybridRunner:
    def test_all_tasks_complete_with_correct_results(self):
        tasks = make_tasks(12)
        runner = LiveHybridRunner(n_workers=3, n_devices=1, max_queue_length=2)
        res = runner.run(tasks, timeout_s=60.0)
        assert res.gpu_tasks + res.cpu_tasks == 12
        assert set(res.totals) == set(range(12))
        for t in tasks:
            assert res.totals[t.task_id] == pytest.approx(
                analytic_total(t), rel=1e-8
            )

    def test_multiple_devices(self):
        tasks = make_tasks(10)
        runner = LiveHybridRunner(n_workers=2, n_devices=2, max_queue_length=4)
        res = runner.run(tasks, timeout_s=60.0)
        assert res.gpu_tasks + res.cpu_tasks == 10
        assert res.gpu_ratio > 0.0

    def test_live_run_detects_a_leaked_slot(self, monkeypatch):
        # The forked workers inherit the patch: no slot is ever released.
        monkeypatch.setattr(SharedMemoryScheduler, "sche_free", lambda self, device: None)
        runner = LiveHybridRunner(n_workers=2, n_devices=1, max_queue_length=2)
        with pytest.raises(RuntimeError, match="leaked queue slots"):
            runner.run(make_tasks(4, n_bins=8), timeout_s=60.0)

    def test_a_dead_device_server_fails_the_run_at_once(self, monkeypatch):
        def crash(task):
            raise ValueError("device kernel failed")

        monkeypatch.setattr(LiveTask, "gpu_compute", crash)
        runner = LiveHybridRunner(n_workers=2, n_devices=1, max_queue_length=2)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="device server 0"):
            runner.run(make_tasks(4, n_bins=8), timeout_s=30.0)
        assert time.perf_counter() - t0 < 10.0

    def test_a_stalled_run_times_out_when_the_timeout_passes(self, monkeypatch):
        monkeypatch.setattr(LiveTask, "gpu_compute", lambda task: time.sleep(30.0))
        runner = LiveHybridRunner(n_workers=1, n_devices=1, max_queue_length=1)
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError):
            runner.run(make_tasks(1, n_bins=8), timeout_s=0.5)
        assert 0.5 <= time.perf_counter() - t0 < 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveHybridRunner(n_workers=0)
        with pytest.raises(ValueError):
            LiveHybridRunner(max_queue_length=0)
