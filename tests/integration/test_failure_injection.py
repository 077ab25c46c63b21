"""Failure injection: broken devices, leaked slots, poisoned queues."""

import numpy as np
import pytest

from repro.cluster.simclock import SimClock
from repro.core.metrics import MetricsLedger
from repro.core.scheduler import NO_DEVICE, SharedMemoryScheduler
from repro.core.task import Task, TaskKind
from repro.gpusim.device import TESLA_C2075, SimulatedGPU


class TestDeviceFailure:
    def test_failed_device_strands_waiters(self):
        """A GPU dying mid-run leaves its waiter blocked — visible as an
        unfired completion signal, never a silent wrong result."""
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        done = gpu.submit(Task(0, TaskKind.ION, n_integrals=1000, evals_per_integral=65))
        gpu.fail()
        clock.run()
        assert not done.fired

    def test_scheduler_can_route_around_failed_device(self):
        """Operational recovery: mark the dead device's queue as full by
        occupying its slots, and traffic flows to the survivor."""
        s = SharedMemoryScheduler(n_devices=2, max_queue_length=2)
        # Device 0 dies: poison its queue to capacity.
        while s.loads()[0] < 2:
            s.queues[0].occupy()
        for _ in range(2):
            assert s.sche_alloc() == 1
        assert s.sche_alloc() == NO_DEVICE  # both exhausted now


class TestQueueCorruption:
    def test_overfull_admission_detected(self):
        s = SharedMemoryScheduler(n_devices=1, max_queue_length=1)
        s.sche_alloc()
        # Corrupt the shared counter behind the scheduler's back.
        s.segment.load.store(0, 5)
        with pytest.raises(ValueError):
            s.validate()

    def test_negative_load_detected(self):
        s = SharedMemoryScheduler(n_devices=1, max_queue_length=4)
        s.segment.load.store(0, -3)
        with pytest.raises(ValueError):
            s.validate()

    def test_slot_leak_detected_by_runner(self):
        """The hybrid runner refuses to report success if queue slots
        leaked (every occupy must be matched by a release)."""
        from repro.core.granularity import WorkloadSpec, build_tasks
        from repro.core.hybrid import HybridConfig, HybridRunner
        from repro.atomic.database import AtomicConfig

        tasks = build_tasks(
            WorkloadSpec(n_points=1, bins_per_level=1000, db_config=AtomicConfig.tiny())
        )
        runner = HybridRunner(HybridConfig(n_workers=2, n_gpus=1, max_queue_length=2))

        class LeakyScheduler(SharedMemoryScheduler):
            def sche_free(self, device, now=0.0):
                pass  # leak every slot

        import repro.core.hybrid as hybrid_mod

        original = hybrid_mod.SharedMemoryScheduler
        hybrid_mod.SharedMemoryScheduler = LeakyScheduler
        try:
            with pytest.raises(RuntimeError, match="leaked"):
                runner.run(tasks)
        finally:
            hybrid_mod.SharedMemoryScheduler = original


class TestSolverFailureModes:
    def test_nei_solver_reports_nonconvergence(self):
        """A starved step budget yields success=False, not garbage."""
        from repro.nei.equilibrium import equilibrium_state
        from repro.nei.odes import NEISystem
        from repro.nei.solvers import AutoSwitchSolver

        sys_ = NEISystem(z=8, ne_cm3=1e10, temperature_k=1e6)
        y0 = equilibrium_state(8, 1e4)
        res = AutoSwitchSolver(rtol=1e-8, atol=1e-12, max_steps=3).solve(
            sys_.rhs, sys_.jacobian, y0, (0.0, 1e6)
        )
        assert not res.success
        assert res.message
        assert np.all(np.isfinite(res.y))

    def test_quadrature_nonconvergence_raises_on_demand(self):
        from repro.quadrature.qags import qags
        from repro.quadrature.result import QuadratureError

        f = lambda x: np.sin(1.0 / np.maximum(np.abs(x), 1e-12))
        res = qags(f, 0.0, 1.0, epsrel=1e-15, epsabs=1e-300, limit=2)
        assert not res.converged
        with pytest.raises(QuadratureError):
            res.require_converged()


class TestMetricsRobustness:
    def test_finalize_is_idempotent_enough(self):
        m = MetricsLedger(1, 2)
        m.on_load_change(0, 0, 1, 1.0)
        m.finalize(2.0)
        total_first = m.load_residency.sum()
        m.finalize(2.0)  # closing again at the same instant adds nothing
        assert m.load_residency.sum() == pytest.approx(total_first)


class TestEndToEndDeviceFailure:
    def _tasks(self):
        from repro.atomic.database import AtomicConfig
        from repro.core.granularity import WorkloadSpec, build_tasks

        return build_tasks(
            WorkloadSpec(n_points=1, bins_per_level=2_000, db_config=AtomicConfig.tiny())
        )

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"scheduler_kind": "predictive"}, {"async_depth": 2}],
        ids=["sync", "predictive", "async"],
    )
    def test_failure_before_any_submit_degrades_to_cpu(self, monkeypatch, knobs):
        """A device dead from t=0 refuses every submit; under every rank
        loop the workers must fall back to CPU and the run must complete
        with nothing lost and no slot or backlog tick held."""
        import repro.core.scheduler as smod
        import repro.gpusim.device as dmod
        from repro.core.hybrid import HybridConfig, HybridRunner

        original_init = dmod.SimulatedGPU.__init__

        def dead_on_arrival(self, clock, spec, index=0):
            original_init(self, clock, spec, index)
            self.fail()

        segments = []

        class RecordedSegment(smod.SharedSegment):
            def __init__(self, n_devices):
                super().__init__(n_devices)
                segments.append(self)

        monkeypatch.setattr(dmod.SimulatedGPU, "__init__", dead_on_arrival)
        monkeypatch.setattr(smod, "SharedSegment", RecordedSegment)
        tasks = self._tasks()
        result = HybridRunner(
            HybridConfig(n_workers=2, n_gpus=1, max_queue_length=2, **knobs)
        ).run(tasks)
        assert result.metrics.cpu_tasks == len(tasks)
        assert result.metrics.gpu_task_ratio() == 0.0
        (segment,) = segments
        assert segment.total_load() == 0
        assert segment.total_backlog() == 0

    def test_failure_mid_service_detected_as_leak(self, monkeypatch):
        """A device dying *with a task in flight* strands the waiter; the
        runner must refuse to report success (leaked queue slots)."""
        import repro.gpusim.device as dmod
        from repro.core.granularity import WorkloadSpec, build_tasks
        from repro.core.hybrid import HybridConfig, HybridRunner
        from repro.atomic.database import AtomicConfig

        from repro.core.calibration import CostModel

        # Big bins -> first service window spans ~[0.07 s, 0.7 s]; the
        # device dies at t = 0.3 s with that task in flight.
        tasks = build_tasks(
            WorkloadSpec(
                n_points=1, bins_per_level=2_000_000,
                db_config=AtomicConfig.tiny(),
            )
        )[:4]
        original_init = dmod.SimulatedGPU.__init__

        def dies_mid_service(self, clock, spec, index=0):
            original_init(self, clock, spec, index)
            clock.at(0.3, self.fail)

        monkeypatch.setattr(dmod.SimulatedGPU, "__init__", dies_mid_service)
        with pytest.raises(RuntimeError, match="leaked"):
            HybridRunner(
                HybridConfig(
                    n_workers=2, n_gpus=1, max_queue_length=2,
                    stagger_s=0.0, cost=CostModel(point_overhead_s=0.0),
                )
            ).run(tasks)
