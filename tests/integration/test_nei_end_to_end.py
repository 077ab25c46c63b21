"""NEI with real numerics through the hybrid scheduler.

The adaptability claim, executed rather than only priced: NEI tasks carry
the eigen-propagator as their GPU kernel and the adaptive LSODA-style
solver as the CPU fallback, and the states that come back through the
scheduler must match the matrix-exponential reference regardless of
placement.
"""

import numpy as np
import pytest

from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.nei.runner import NEIWorkloadSpec, attach_real_execution, build_nei_tasks
from repro.nei.solvers import exact_linear_solution


@pytest.fixture(scope="module")
def nei_setup():
    spec = NEIWorkloadSpec(
        n_grid_points=120, timesteps=50, points_per_task=10
    )
    tasks = build_nei_tasks(spec, n_partitions=4)
    ctx = attach_real_execution(tasks, spec)
    return spec, tasks, ctx


def reference_final(ctx, spec) -> np.ndarray:
    t_end = ctx["dt_s"] * spec.timesteps
    return exact_linear_solution(
        ctx["system"].matrix(), ctx["y0"], np.array([t_end])
    )[0]


class TestNEIRealExecution:
    def test_gpu_path_matches_expm(self, nei_setup):
        spec, tasks, ctx = nei_setup
        out = tasks[0].execute()
        ref = reference_final(ctx, spec)
        assert out.shape == (spec.points_per_task, ctx["system"].z + 1)
        assert np.abs(out - ref[None, :]).max() < 1e-8

    def test_cpu_path_matches_expm(self, nei_setup):
        spec, tasks, ctx = nei_setup
        out = tasks[0].run_cpu()
        ref = reference_final(ctx, spec)
        assert np.abs(out - ref[None, :]).max() < 1e-5

    def test_through_the_scheduler(self, nei_setup):
        spec, tasks, ctx = nei_setup
        cost = CostModel(point_overhead_s=0.0)
        result = HybridRunner(
            HybridConfig(
                n_workers=4, n_gpus=1, max_queue_length=1,
                cost=cost, stagger_s=0.0,
            )
        ).run(tasks)
        # Mixed placement (tight queue forces fallbacks)...
        assert result.metrics.cpu_tasks > 0
        assert int(result.metrics.gpu_tasks.sum()) > 0
        # ...but every accumulated pack agrees with the exact solution.
        ref = reference_final(ctx, spec)
        n_tasks_per_partition = {
            p: sum(1 for t in tasks if t.point_index == p)
            for p in result.spectra
        }
        for p, acc in result.spectra.items():
            per_pack = acc / n_tasks_per_partition[p]
            assert np.abs(per_pack - np.tile(ref, (spec.points_per_task, 1))).max() < 1e-5

    def test_conservation_through_everything(self, nei_setup):
        spec, tasks, _ctx = nei_setup
        out = tasks[0].execute()
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
