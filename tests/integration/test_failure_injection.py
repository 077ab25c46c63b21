"""Failure injection: broken devices, leaked slots, poisoned queues."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.atomic.database import AtomicConfig
from repro.cluster.simclock import SimClock
from repro.core.calibration import CostModel
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.metrics import MetricsLedger
from repro.core.replay import replay_trace
from repro.core.scheduler import NO_DEVICE, SharedMemoryScheduler
from repro.core.task import Task, TaskKind
from repro.gpusim.device import LOST, TESLA_C2075, TESLA_K20, SimulatedGPU
from repro.obs import EventTracer


class TestDeviceFailure:
    def test_failed_device_answers_waiters_with_lost(self):
        """A GPU dying mid-run wakes its waiter with ``LOST`` — never a
        blocked waiter, never a silent wrong result."""
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        done = gpu.submit(Task(0, TaskKind.ION, n_integrals=1000, evals_per_integral=65))
        gpu.fail()
        clock.run()
        assert done.fired and done.payload is LOST

    def test_scheduler_can_route_around_failed_device(self):
        """Operational recovery: mark the dead device's queue as full by
        occupying its slots, and traffic flows to the survivor."""
        s = SharedMemoryScheduler(n_devices=2, max_queue_length=2)
        # Device 0 dies: poison its queue to capacity.
        s.segment.load[0] = 2
        for _ in range(2):
            assert s.sche_alloc() == 1
        assert s.sche_alloc() == NO_DEVICE  # both exhausted now


class TestQueueCorruption:
    def test_overfull_admission_detected(self):
        s = SharedMemoryScheduler(n_devices=1, max_queue_length=1)
        s.sche_alloc()
        # Corrupt the shared counter behind the scheduler's back.
        s.segment.load[0] = 5
        with pytest.raises(ValueError):
            s.validate()

    def test_negative_load_detected(self):
        s = SharedMemoryScheduler(n_devices=1, max_queue_length=4)
        s.segment.load[0] = -3
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

        def dead_on_arrival(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
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

    def test_failure_mid_service_reruns_the_task_on_cpu(self, monkeypatch):
        """A device dying *with a task in flight* hands the rank ``LOST``;
        the rank runs that task on its CPU and the run completes with
        every task placed once and no slot or backlog held."""
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

        def dies_mid_service(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            self.clock.call_at(0.3, dmod.SimulatedGPU.fail, self)

        monkeypatch.setattr(dmod.SimulatedGPU, "__init__", dies_mid_service)
        result = HybridRunner(
            HybridConfig(
                n_workers=2, n_gpus=1, max_queue_length=2,
                stagger_s=0.0, cost=CostModel(point_overhead_s=0.0),
            )
        ).run(tasks)
        metrics = result.metrics
        assert metrics.cpu_tasks == len(tasks)  # the lost one and every later one
        assert int(metrics.gpu_tasks.sum()) == 0
        assert metrics.task_waits == []  # a lost task is no timing sample
        assert result.gpu_utilization[0] * result.makespan_s < 0.7

    def test_client_server_frees_a_lost_task_one_rpc_later(self, monkeypatch):
        """Under the client-server scheduler every release is a round
        trip, a lost task's too: the rank frees the slot one
        ``rpc_latency_s`` after ``LOST`` reaches it, as it frees a
        completed task's one round trip after the result."""
        import repro.core.scheduler as smod
        import repro.gpusim.device as dmod

        tasks = build_tasks(
            WorkloadSpec(n_points=1, bins_per_level=2_000_000, db_config=AtomicConfig.tiny())
        )[:4]
        lost_at, freed_at = [], []
        original_init, original_wake = dmod.SimulatedGPU.__init__, dmod.SimulatedGPU._wake
        original_free = smod.ClientServerScheduler.sche_free

        def dies_mid_service(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            self.clock.call_at(0.3, dmod.SimulatedGPU.fail, self)

        def wake(self, waiter, payload):
            if payload is LOST:
                lost_at.append(self.clock.now)
            original_wake(self, waiter, payload)

        def free(self, device, now=0.0):
            freed_at.append(now)
            original_free(self, device, now)

        monkeypatch.setattr(dmod.SimulatedGPU, "__init__", dies_mid_service)
        monkeypatch.setattr(dmod.SimulatedGPU, "_wake", wake)
        monkeypatch.setattr(smod.ClientServerScheduler, "sche_free", free)
        config = HybridConfig(
            n_workers=1, n_gpus=1, max_queue_length=2, stagger_s=0.0,
            cost=CostModel(point_overhead_s=0.0), scheduler_kind="client-server",
        )
        result = HybridRunner(config).run(tasks)
        assert result.metrics.cpu_tasks == len(tasks) == len(lost_at)
        assert lost_at[0] > 0.3  # the task in service, at its end; then refusals
        assert freed_at == [t + config.rpc_latency_s for t in lost_at]


#: Every rank loop: synchronous, predictive dispatch, async at depth 1-3.
LOOPS = {
    "sync": {}, "predictive": {"scheduler_kind": "predictive"},
    **{f"async{depth}": {"async_depth": depth} for depth in (1, 2, 3)},
}
CARDS = {"c2075": TESLA_C2075, "k20": TESLA_K20}


@functools.lru_cache(maxsize=None)
def _paying_tasks() -> tuple:
    """The contended batch of ``tests/obs/test_trace_rows.py`` (288 ion
    tasks over 8 points), each paying a seeded 16-bin spectrum on either
    device kind."""
    rng, payloads = np.random.default_rng(7), {}

    def factory(ion, point):
        payload = payloads.setdefault((ion.name, point), rng.random(16))
        return lambda: payload

    return tuple(build_tasks(
        WorkloadSpec(n_points=8, bins_per_level=200_000, db_config=AtomicConfig.tiny()),
        gpu_execute_factory=factory, cpu_execute_factory=factory,
    ))


def _faulted_run(loop: str, card: str, fail=None):
    """One traced batch (8 ranks, 2 GPUs, 3 slots a queue) on its own
    clock; ``fail=(gpu, t)`` kills that GPU at virtual second t.  Returns
    the run result, its tracer and its scheduler segment, after checking
    that the batch joined."""
    import repro.core.scheduler as smod

    tasks, clock, tracer, segments = list(_paying_tasks()), SimClock(), EventTracer(), []

    class RecordedSegment(smod.SharedSegment):
        def __init__(self, n_devices):
            super().__init__(n_devices)
            segments.append(self)

    original_init = SimulatedGPU.__init__

    def dies_at(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if fail is not None and self.index == fail[0]:
            clock.call_at(fail[1], SimulatedGPU.fail, self)

    config = HybridConfig(
        n_workers=8, n_gpus=2, max_queue_length=3, device=CARDS[card],
        cost=CostModel(point_overhead_s=0.0), stagger_s=0.01, **LOOPS[loop],
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smod, "SharedSegment", RecordedSegment)
        patch.setattr(SimulatedGPU, "__init__", dies_at)
        handle = HybridRunner(config, tracer=tracer).spawn_batch(tasks, clock)
        clock.run()
    assert not handle.alive, "the batch stalled"
    (segment,) = segments
    return handle.result, tracer, segment


@functools.lru_cache(maxsize=None)
def _fault_free_spectra(loop: str, card: str) -> dict:
    return _faulted_run(loop, card)[0].spectra


class TestEveryTaskReachesOneOutcome:
    @settings(max_examples=60, deadline=None)
    @given(
        loop=st.sampled_from(sorted(LOOPS)),
        card=st.sampled_from(sorted(CARDS)),
        gpu=st.integers(min_value=0, max_value=1),
        fail_at=st.floats(min_value=0.0, max_value=30.0),
    )
    @example(loop="sync", card="c2075", gpu=0, fail_at=0.0)
    @example(loop="predictive", card="k20", gpu=0, fail_at=2.0)
    @example(loop="async3", card="k20", gpu=1, fail_at=0.5)
    def test_a_gpu_dying_at_any_time_loses_no_task(self, loop, card, gpu, fail_at):
        """Whenever a GPU dies, under every loop and card: the batch joins,
        each task runs once (on a GPU or, lost or refused, on its rank's
        CPU), no slot or backlog tick is held, the trace audits clean and
        the spectra are the fault-free run's up to summation order."""
        n = len(_paying_tasks())
        result, tracer, segment = _faulted_run(loop, card, (gpu, fail_at))
        metrics = result.metrics
        assert int(metrics.gpu_tasks.sum()) + metrics.cpu_tasks == n
        assert segment.total_load() == 0 and segment.total_backlog() == 0
        report = replay_trace(
            tracer, n_expected_tasks=n, async_depth=LOOPS[loop].get("async_depth", 0)
        )
        assert report.ok, report.violations
        assert report.n_gpu + report.n_cpu == n
        reference = _fault_free_spectra(loop, card)
        assert result.spectra.keys() == reference.keys()
        for point, spectrum in reference.items():
            np.testing.assert_allclose(result.spectra[point], spectrum, rtol=1e-10, atol=0)

