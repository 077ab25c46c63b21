"""The hybrid runner: end-to-end scheduling behaviour at reduced scale."""

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig
from repro.core.calibration import CostModel
from repro.core.granularity import Granularity, WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.scheduler import ClientServerScheduler
from repro.core.task import Task, TaskKind


@pytest.fixture(scope="module")
def mini_tasks():
    """2 points x 36 ions, sized so a test run takes milliseconds."""
    return build_tasks(
        WorkloadSpec(n_points=2, bins_per_level=5_000, db_config=AtomicConfig.tiny())
    )


def mini_config(**over):
    base = dict(n_workers=4, n_gpus=1, max_queue_length=4)
    base.update(over)
    return HybridConfig(**base)


class TestBaselines:
    def test_serial_time_additive(self, mini_tasks):
        runner = HybridRunner(mini_config())
        whole = runner.serial_time(mini_tasks)
        half_a = runner.serial_time([t for t in mini_tasks if t.point_index == 0])
        half_b = runner.serial_time([t for t in mini_tasks if t.point_index == 1])
        assert whole == pytest.approx(half_a + half_b, rel=1e-12)

    def test_mpi_only_faster_than_serial(self, mini_tasks):
        runner = HybridRunner(mini_config())
        serial = runner.serial_time(mini_tasks)
        mpi = runner.run_mpi_only(mini_tasks)
        assert mpi.makespan_s < serial
        assert mpi.mode == "mpi"
        assert mpi.metrics.cpu_tasks == len(mini_tasks)

    def test_mpi_only_empty(self):
        res = HybridRunner(mini_config()).run_mpi_only([])
        assert res.makespan_s == 0.0


class TestHybridRun:
    def test_all_tasks_complete(self, mini_tasks):
        res = HybridRunner(mini_config()).run(mini_tasks)
        assert res.metrics.total_tasks == len(mini_tasks)
        assert res.makespan_s > 0.0
        assert res.mode == "hybrid"

    def test_hybrid_beats_mpi_only(self, mini_tasks):
        runner = HybridRunner(mini_config())
        hybrid = runner.run(mini_tasks)
        mpi = runner.run_mpi_only(mini_tasks)
        assert hybrid.makespan_s < mpi.makespan_s

    def test_no_gpu_degenerates_to_cpu_only(self, mini_tasks):
        res = HybridRunner(mini_config(n_gpus=0)).run(mini_tasks)
        assert res.metrics.cpu_tasks == len(mini_tasks)
        assert res.metrics.gpu_task_ratio() == 0.0

    def test_determinism(self, mini_tasks):
        r1 = HybridRunner(mini_config()).run(mini_tasks)
        r2 = HybridRunner(mini_config()).run(mini_tasks)
        assert r1.makespan_s == r2.makespan_s
        assert np.array_equal(r1.metrics.load_residency, r2.metrics.load_residency)

    def test_more_gpus_not_slower(self, mini_tasks):
        times = [
            HybridRunner(mini_config(n_gpus=g)).run(mini_tasks).makespan_s
            for g in (1, 2, 4)
        ]
        assert times[1] <= times[0] * 1.02
        assert times[2] <= times[1] * 1.02

    def test_queue_bound_respected(self, mini_tasks):
        res = HybridRunner(mini_config(max_queue_length=2)).run(mini_tasks)
        # Residency histogram has no mass beyond the bound.
        assert res.metrics.load_residency.shape[1] == 3

    def test_utilization_reported(self, mini_tasks):
        res = HybridRunner(mini_config(n_gpus=2)).run(mini_tasks)
        assert len(res.gpu_utilization) == 2
        assert all(0.0 <= u <= 1.0 for u in res.gpu_utilization)

    def test_real_execution_accumulates_spectra(self):
        """Tasks with execute callables produce per-point spectra."""
        bins = 16
        tasks = []
        for tid in range(8):
            point = tid % 2
            payload = np.full(bins, float(tid))
            tasks.append(
                Task(
                    task_id=tid,
                    kind=TaskKind.ION,
                    point_index=point,
                    n_levels=1,
                    n_integrals=100,
                    evals_per_integral=65,
                    execute=(lambda p=payload: p),
                    cpu_execute=(lambda p=payload: p),
                )
            )
        res = HybridRunner(mini_config(n_workers=2)).run(tasks)
        assert set(res.spectra) == {0, 1}
        expected0 = sum(float(t) for t in range(8) if t % 2 == 0)
        assert np.allclose(res.spectra[0], expected0)

    def test_client_server_scheduler_slower(self, mini_tasks):
        shared = HybridRunner(mini_config()).run(mini_tasks)
        served = HybridRunner(
            mini_config(scheduler_kind="client-server", rpc_latency_s=5e-3)
        ).run(mini_tasks)
        assert served.makespan_s > shared.makespan_s

    def test_async_mode_completes_everything(self, mini_tasks):
        res = HybridRunner(mini_config(async_depth=4)).run(mini_tasks)
        assert res.metrics.total_tasks == len(mini_tasks)

    def test_async_mode_at_least_as_fast_when_gpu_bound(self, mini_tasks):
        sync = HybridRunner(mini_config(n_gpus=1)).run(mini_tasks)
        async_ = HybridRunner(mini_config(n_gpus=1, async_depth=4)).run(mini_tasks)
        assert async_.makespan_s <= sync.makespan_s * 1.05


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_workers=0),
            dict(n_gpus=-1),
            dict(max_queue_length=0),
            dict(scheduler_kind="mps"),
            dict(async_depth=-1),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            mini_config(**kwargs)

    @pytest.mark.parametrize(
        "kind", ["shared", "client-server", "random", "weighted", "predictive"]
    )
    def test_unknown_tie_break_refused_by_every_kind(self, kind):
        with pytest.raises(ValueError, match="tie_break"):
            mini_config(scheduler_kind=kind, tie_break="bogus")

    def test_random_refuses_a_tie_break(self):
        with pytest.raises(ValueError, match="scheduler_kind='random'.*tie_break"):
            mini_config(scheduler_kind="random", tie_break="first")

    @pytest.mark.parametrize("stagger", [-0.5, float("nan"), None], ids=["negative", "nan", "none"])
    def test_bad_stagger_refused_at_construction(self, stagger):
        with pytest.raises(ValueError, match="stagger_s"):
            mini_config(stagger_s=stagger)

    @pytest.mark.parametrize("kind", ["shared", "client-server"])
    @pytest.mark.parametrize("latency", [-1.0, float("nan"), float("inf")])
    def test_bad_rpc_latency_refused_at_construction(self, kind, latency):
        with pytest.raises(ValueError, match="rpc_latency_s"):
            mini_config(scheduler_kind=kind, rpc_latency_s=latency)


class TestTieBreak:
    """Every ranking scheduler honours ``tie_break``: with equal weights
    the weighted and client-server rules place exactly as Algorithm 1
    does under the same rule."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.bench.workloads import paper_workload

        tasks = paper_workload(2)
        out = {}
        for kind in ("shared", "client-server", "weighted"):
            for rule in ("history", "first"):
                cfg = HybridConfig(
                    n_workers=8, n_gpus=3, max_queue_length=2,
                    scheduler_kind=kind, tie_break=rule,
                )
                res = HybridRunner(cfg).run(tasks)
                out[kind, rule] = [int(n) for n in res.metrics.gpu_tasks]
        return out

    def test_the_rule_changes_placement(self, runs):
        assert runs["shared", "first"] != runs["shared", "history"]

    @pytest.mark.parametrize("kind", ["client-server", "weighted"])
    @pytest.mark.parametrize("rule", ["history", "first"])
    def test_placement_follows_algorithm_1_under_either_rule(self, runs, kind, rule):
        assert runs[kind, rule] == runs["shared", rule]


class TestPartitioning:
    def test_points_partitioned_by_modulo(self, mini_tasks):
        runner = HybridRunner(mini_config(n_workers=2))
        parts = runner._partition(mini_tasks)
        assert all(t.point_index == 0 for t in parts[0])
        assert all(t.point_index == 1 for t in parts[1])

    def test_fallback_pricing_uses_task_override(self):
        cost = CostModel()
        t = Task(
            task_id=0,
            kind=TaskKind.NEI_CHUNK,
            n_integrals=10,
            evals_per_integral=100,
            cpu_evals_per_integral=1000,
        )
        priced = cost.cpu_task_fallback_s(t.n_integrals, t.cpu_evals_per_integral)
        default = cost.cpu_task_fallback_s(t.n_integrals)
        assert priced != default


class TestEmbeddedBatch:
    """spawn_batch: the service broker's per-batch entry point."""

    def test_embedded_batch_matches_standalone_run(self, mini_tasks):
        from repro.cluster.simclock import SimClock

        direct = HybridRunner(mini_config()).run(mini_tasks)
        clock = SimClock()
        results = []

        def driver():
            yield 123.0  # batch starts mid-simulation, not at t = 0
            handle = HybridRunner(mini_config()).spawn_batch(mini_tasks, clock)
            results.append((yield handle))

        clock.spawn(driver())
        clock.run()
        embedded = results[0]
        assert embedded.makespan_s == pytest.approx(direct.makespan_s, rel=1e-12)
        assert embedded.metrics.total_tasks == direct.metrics.total_tasks
        assert embedded.metrics.start_time == pytest.approx(123.0)
        # Residency intervals open at the batch start, so totals span the
        # batch's own makespan rather than the absolute clock reading.
        assert embedded.metrics.load_residency[0].sum() == pytest.approx(
            embedded.makespan_s, rel=1e-9
        )

    def test_concurrent_batches_do_not_perturb_each_other(self, mini_tasks):
        from repro.cluster.simclock import SimClock

        direct = HybridRunner(mini_config()).run(mini_tasks)
        clock = SimClock()
        results = []

        def driver(delay):
            yield delay
            handle = HybridRunner(mini_config()).spawn_batch(mini_tasks, clock)
            results.append((yield handle))

        clock.spawn(driver(0.0))
        clock.spawn(driver(1.5))
        clock.run()
        assert len(results) == 2
        for res in results:
            # Each batch owns its node, so interleaved event processing
            # must not change its virtual timing.
            assert res.makespan_s == pytest.approx(direct.makespan_s, rel=1e-12)

    def test_run_result_handle_exposes_result(self, mini_tasks):
        from repro.cluster.simclock import SimClock

        clock = SimClock()
        handle = HybridRunner(mini_config()).spawn_batch(mini_tasks, clock)
        clock.run()
        assert handle.result is not None
        assert handle.result.n_tasks == len(mini_tasks)


class TestSelfDrivenRanks:
    """A synchronous rank pushes its own wake-ups (SimClock.start): what a
    process handle refused, normalised or released, it still does."""

    @pytest.mark.parametrize(
        "where,knobs",
        [
            ("submit", dict(forced=dict(submit_overhead_s=float("nan")))),
            ("prep", dict(cost=CostModel(prep_fixed_s=1e308, prep_per_level_s=1e308))),
            ("rpc", dict(scheduler_kind="client-server")),
            ("cpu", dict(n_gpus=0, cost=CostModel(cpu_eval_s=1e308))),
            ("predictive", dict(scheduler_kind="predictive",
                                forced=dict(submit_overhead_s=float("nan")))),
        ],
    )
    def test_a_bad_delay_is_refused_with_the_handles_error(
        self, mini_tasks, monkeypatch, where, knobs
    ):
        """The configs refuse a non-finite constant, so a bad delay is an
        overflow of finite ones (prep, cpu) or forced in after construction."""
        knobs = dict(knobs)
        forced = knobs.pop("forced", {})
        runner = HybridRunner(mini_config(**knobs))
        for name, value in forced.items():
            object.__setattr__(runner.config.cost, name, value)
        if where == "rpc":
            init = ClientServerScheduler.__init__

            def unchecked(self, *args):
                init(self, *args)
                self.rpc_latency_s = float("inf")

            monkeypatch.setattr(ClientServerScheduler, "__init__", unchecked)
        with pytest.raises(ValueError, match=r"process 'rank\d+' yielded negative or non-finite delay"):
            runner.run(mini_tasks)

    @pytest.mark.parametrize("overhead", [0, np.float64(0.0177)])
    def test_a_non_float_delay_sleeps_as_its_float(self, mini_tasks, overhead):
        as_float = HybridRunner(mini_config(cost=CostModel(submit_overhead_s=float(overhead))))
        other = HybridRunner(mini_config(cost=CostModel(submit_overhead_s=overhead)))
        expected, got = as_float.run(mini_tasks), other.run(mini_tasks)
        assert type(got.makespan_s) is float
        assert got.makespan_s == expected.makespan_s

    @pytest.mark.parametrize("kind", ["shared", "client-server", "predictive"])
    def test_finished_ranks_are_freed_without_the_cycle_collector(self, mini_tasks, kind):
        import gc
        import inspect

        code = HybridRunner._worker_sync.__code__
        gc.collect()
        gc.disable()
        try:
            HybridRunner(mini_config(scheduler_kind=kind)).run(mini_tasks)
            left = [o for o in gc.get_objects()
                    if inspect.isgenerator(o) and o.gi_code is code]
        finally:
            gc.enable()
        assert left == []
