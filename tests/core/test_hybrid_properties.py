"""Property-based tests of the hybrid runner (hypothesis).

Random miniature workloads and configurations; invariants that must hold
for *every* schedule the runner can produce.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.task import Task, TaskKind, task_cost


@st.composite
def workload(draw):
    n_points = draw(st.integers(min_value=1, max_value=4))
    n_tasks = draw(st.integers(min_value=1, max_value=30))
    tasks = []
    for tid in range(n_tasks):
        n_levels = draw(st.integers(min_value=1, max_value=12))
        bins = draw(st.sampled_from([100, 1_000, 10_000]))
        tasks.append(
            Task(
                task_id=tid,
                kind=TaskKind.ION,
                point_index=tid % n_points,
                **task_cost(n_levels, bins, 65),
            )
        )
    return tasks


@st.composite
def config(draw):
    return HybridConfig(
        n_workers=draw(st.integers(min_value=1, max_value=6)),
        n_gpus=draw(st.integers(min_value=0, max_value=3)),
        max_queue_length=draw(st.integers(min_value=1, max_value=6)),
        async_depth=draw(st.sampled_from([0, 0, 0, 2])),
        stagger_s=draw(st.sampled_from([0.0, 0.1])),
    )


class TestHybridInvariants:
    @given(tasks=workload(), cfg=config())
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_sanity(self, tasks, cfg):
        result = HybridRunner(cfg).run(tasks)
        m = result.metrics
        # Every task placed exactly once.
        assert m.total_tasks == len(tasks)
        # No GPUs -> everything on CPU.
        if cfg.n_gpus == 0:
            assert m.cpu_tasks == len(tasks)
        # Makespan positive and finite.
        assert np.isfinite(result.makespan_s)
        assert result.makespan_s > 0.0
        # Load residency integrates to the makespan on every device.
        for d in range(cfg.n_gpus):
            assert m.load_residency[d].sum() <= result.makespan_s + 1e-9
        # Utilizations are probabilities.
        assert all(0.0 <= u <= 1.0 + 1e-12 for u in result.gpu_utilization)

    @given(tasks=workload(), cfg=config())
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, tasks, cfg):
        a = HybridRunner(cfg).run(tasks)
        b = HybridRunner(cfg).run(tasks)
        assert a.makespan_s == b.makespan_s
        assert int(a.metrics.gpu_tasks.sum()) == int(b.metrics.gpu_tasks.sum())

    @given(tasks=workload())
    @settings(max_examples=30, deadline=None)
    def test_makespan_bounded_below_by_critical_path(self, tasks):
        """No schedule beats the per-worker serial floor: the busiest
        rank's prep plus its cheapest-possible execution."""
        cfg = HybridConfig(
            n_workers=2, n_gpus=2, max_queue_length=4, stagger_s=0.0
        )
        cost = cfg.cost
        result = HybridRunner(cfg).run(tasks)
        runner = HybridRunner(cfg)
        floors = []
        for part in runner._partition(tasks):
            if not part:
                continue
            points = {t.point_index for t in part}
            floor = len(points) * 0.0  # point share sums to overhead total
            floor += sum(cost.prep_s(t.n_levels) for t in part)
            floor += len(points) * cost.point_overhead_s
            floors.append(floor)
        assert result.makespan_s >= max(floors) - 1e-9

    @given(tasks=workload())
    @settings(max_examples=20, deadline=None)
    def test_serial_time_is_upper_envelope(self, tasks):
        """The hybrid run never exceeds the serial time plus worker
        bring-up (it can always do what serial does, in parallel)."""
        cfg = HybridConfig(n_workers=4, n_gpus=2, max_queue_length=4)
        runner = HybridRunner(cfg)
        hybrid = runner.run(tasks).makespan_s
        serial = runner.serial_time(tasks)
        mpi_factor = cfg.cost.mpi_contention * cfg.cost.cpu_fallback_penalty
        slack = cfg.n_workers * cfg.stagger_s + 1e-6
        assert hybrid <= serial * mpi_factor + slack
