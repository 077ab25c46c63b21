"""NEI workload construction and the Table II regime."""

import pytest

from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.task import TaskKind
from repro.nei.runner import NEIWorkloadSpec, build_nei_tasks


class TestNEIWorkloadSpec:
    def test_defaults(self):
        spec = NEIWorkloadSpec()
        assert spec.points_per_task == 10  # the paper's packing
        assert spec.n_tasks == 2400
        assert spec.steps_per_task == 10_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_grid_points=0),
            dict(points_per_task=0),
            dict(n_grid_points=25, points_per_task=10),  # not divisible
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NEIWorkloadSpec(**kwargs)


class TestBuildNEITasks:
    def test_task_count_and_kind(self):
        spec = NEIWorkloadSpec(n_grid_points=100, points_per_task=10)
        tasks = build_nei_tasks(spec)
        assert len(tasks) == 10
        assert all(t.kind is TaskKind.NEI_CHUNK for t in tasks)

    def test_cpu_pricing_override(self):
        spec = NEIWorkloadSpec(n_grid_points=10, points_per_task=10)
        task = build_nei_tasks(spec)[0]
        assert task.cpu_evals_per_integral == spec.cpu_units_per_step
        assert task.n_integrals == spec.steps_per_task

    def test_partition_spread(self):
        spec = NEIWorkloadSpec(n_grid_points=480, points_per_task=10)
        tasks = build_nei_tasks(spec, n_partitions=24)
        per_rank = {}
        for t in tasks:
            per_rank[t.point_index] = per_rank.get(t.point_index, 0) + 1
        assert len(per_rank) == 24
        assert max(per_rank.values()) == min(per_rank.values())

    def test_execute_factories(self):
        seen = []
        spec = NEIWorkloadSpec(n_grid_points=20, points_per_task=10)
        tasks = build_nei_tasks(
            spec,
            gpu_execute_factory=lambda tid: (lambda: seen.append(("gpu", tid))),
            cpu_execute_factory=lambda tid: (lambda: seen.append(("cpu", tid))),
        )
        tasks[0].kernel.execute()
        tasks[1].run_cpu()
        assert seen == [("gpu", 0), ("cpu", 1)]


class TestTableIIRegime:
    """The Table II *shape*: monotone near-linear GPU scaling, in contrast
    to the spectral workload's saturation after 3 GPUs."""

    @pytest.fixture(scope="class")
    def nei_results(self):
        cost = CostModel(point_overhead_s=0.0)
        # 2400 tasks: enough that end-of-run stragglers do not dominate
        # (the paper's 1e5 tasks only sharpen these ratios further).
        spec = NEIWorkloadSpec(n_grid_points=24_000)
        tasks = build_nei_tasks(spec)
        mpi = HybridRunner(
            HybridConfig(n_gpus=0, max_queue_length=8, cost=cost)
        ).run_mpi_only(tasks)
        speedups = {}
        for g in (1, 2, 3, 4):
            r = HybridRunner(
                HybridConfig(n_gpus=g, max_queue_length=8, cost=cost)
            ).run(tasks)
            speedups[g] = mpi.makespan_s / r.makespan_s
        return speedups

    def test_speedup_monotone_in_gpus(self, nei_results):
        s = nei_results
        assert s[1] < s[2] < s[3] < s[4]

    def test_no_saturation_through_four_gpus(self, nei_results):
        """Unlike Fig. 3, the 3->4 GPU step still helps (>15% gain)."""
        assert nei_results[4] / nei_results[3] > 1.15

    def test_magnitudes_in_paper_range(self, nei_results):
        assert 2.0 < nei_results[1] < 6.0
        assert 8.0 < nei_results[4] < 18.0
