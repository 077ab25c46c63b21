"""Multi-node partitioning and scaling behaviour."""

import pytest

from repro.atomic.database import AtomicConfig
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig
from repro.core.multinode import MultiNodeConfig, MultiNodeRunner


@pytest.fixture(scope="module")
def tasks_8pt():
    return build_tasks(
        WorkloadSpec(n_points=8, bins_per_level=2_000, db_config=AtomicConfig.tiny())
    )


def node_cfg(**over):
    base = dict(n_workers=2, n_gpus=1, max_queue_length=4)
    base.update(over)
    return HybridConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_nodes=0),
            dict(interconnect_latency_s=-1.0),
            dict(interconnect_bandwidth_bs=0.0),
            dict(bytes_per_task_result=-1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MultiNodeConfig(**kwargs)


class TestPartition:
    def test_points_kept_whole(self, tasks_8pt):
        runner = MultiNodeRunner(MultiNodeConfig(n_nodes=3, node=node_cfg()))
        parts = runner.partition(tasks_8pt)
        assert len(parts) == 3
        for node_index, part in enumerate(parts):
            for task in part:
                assert task.point_index % 3 == node_index
        assert sum(len(p) for p in parts) == len(tasks_8pt)


class TestRun:
    def test_all_nodes_complete_everything(self, tasks_8pt):
        runner = MultiNodeRunner(MultiNodeConfig(n_nodes=2, node=node_cfg()))
        result = runner.run(tasks_8pt)
        total = sum(r.metrics.total_tasks for r in result.node_results)
        assert total == len(tasks_8pt)
        assert result.makespan_s > 0.0

    def test_service_tasks_run(self):
        """Any producer's tasks run on the cluster, the service's too."""
        from repro.bench.workloads import small_real_database
        from repro.service.requests import SpectrumRequest, compile_tasks

        tasks = compile_tasks(
            SpectrumRequest(temperature_k=2.0e6), small_real_database(),
            with_payload=False,
        )
        runner = MultiNodeRunner(MultiNodeConfig(n_nodes=2, node=node_cfg()))
        result = runner.run(tasks)
        assert len(tasks) == 36
        assert sum(r.metrics.total_tasks for r in result.node_results) == 36

    def test_two_nodes_roughly_halve_time(self, tasks_8pt):
        one = MultiNodeRunner(MultiNodeConfig(n_nodes=1, node=node_cfg())).run(tasks_8pt)
        two = MultiNodeRunner(MultiNodeConfig(n_nodes=2, node=node_cfg())).run(tasks_8pt)
        assert one.makespan_s / two.makespan_s == pytest.approx(2.0, rel=0.15)

    def test_comm_cost_included(self, tasks_8pt):
        cheap = MultiNodeRunner(
            MultiNodeConfig(n_nodes=2, node=node_cfg(), interconnect_latency_s=0.0,
                            bytes_per_task_result=0)
        ).run(tasks_8pt)
        costly = MultiNodeRunner(
            MultiNodeConfig(n_nodes=2, node=node_cfg(), interconnect_latency_s=5.0)
        ).run(tasks_8pt)
        assert costly.makespan_s > cheap.makespan_s + 9.0

    def test_more_nodes_than_points(self, tasks_8pt):
        """Empty nodes are tolerated and contribute nothing."""
        runner = MultiNodeRunner(MultiNodeConfig(n_nodes=10, node=node_cfg()))
        result = runner.run(tasks_8pt)
        total = sum(r.metrics.total_tasks for r in result.node_results)
        assert total == len(tasks_8pt)

    def test_imbalance_metric(self, tasks_8pt):
        # 8 points over 3 nodes: 3/3/2 -> measurable imbalance.
        res = MultiNodeRunner(
            MultiNodeConfig(n_nodes=3, node=node_cfg(n_workers=1))
        ).run(tasks_8pt)
        assert res.imbalance() > 0.0
        times = [r.makespan_s for r in res.node_results]
        assert times.index(max(times)) in (0, 1)  # a three-point node

    def test_deterministic(self, tasks_8pt):
        cfg = MultiNodeConfig(n_nodes=2, node=node_cfg())
        a = MultiNodeRunner(cfg).run(tasks_8pt)
        b = MultiNodeRunner(cfg).run(tasks_8pt)
        assert a.makespan_s == b.makespan_s
