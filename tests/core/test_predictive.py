"""Predictive dispatch: measured-cost placement + work stealing.

The contract under test: the predictive scheduler prices *placement*
but must never change an *answer* — spectra are bit-identical to the
depth scheduler's — and the shared-segment
bookkeeping conserves every slot, tick, steal, and donation.
"""

import numpy as np
import pytest

from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.task import Task, TaskKind, task_cost


def _skewed_tasks(n_points=18, tasks_per_point=6, heavy_every=7):
    """A heavy-tail mix: every ``heavy_every``-th task is a large
    low-efficiency kernel among cheap ones."""
    tasks = []
    tid = 0
    for p in range(n_points):
        for i in range(tasks_per_point):
            heavy = (tid % heavy_every) == 0
            n_levels = 120 if heavy else 4
            label = f"pt{p}/{'Heavy' if heavy else 'Light'}+{i % 2}"
            arr = np.full(12, float(tid % 7) + 0.5)
            tasks.append(
                Task(
                    task_id=tid,
                    kind=TaskKind.ION,
                    point_index=p,
                    method="simpson",
                    label=label,
                    efficiency=0.1 if heavy else 1.0,
                    execute=(lambda a=arr: a),
                    cpu_execute=(lambda a=arr: a),
                    **task_cost(n_levels, 200, 65),
                )
            )
            tid += 1
    return tasks


_HOST = CostModel(
    point_overhead_s=0.0,
    prep_fixed_s=1.0e-4,
    prep_per_level_s=1.0e-6,
    submit_overhead_s=1.0e-4,
)


def _config(**kw):
    base = dict(
        n_workers=12,
        n_gpus=3,
        max_queue_length=8,
        cost=_HOST,
        stagger_s=0.001,
    )
    base.update(kw)
    return HybridConfig(**base)


@pytest.fixture(scope="module")
def tasks():
    return _skewed_tasks()


@pytest.fixture(scope="module")
def depth_result(tasks):
    return HybridRunner(_config(scheduler_kind="shared")).run(tasks)


@pytest.fixture(scope="module")
def predictive_result(tasks):
    return HybridRunner(_config(scheduler_kind="predictive")).run(tasks)


class TestBitIdentity:
    def test_spectra_match_depth_scheduler(self, depth_result, predictive_result):
        assert set(depth_result.spectra) == set(predictive_result.spectra)
        for p in depth_result.spectra:
            np.testing.assert_array_equal(
                depth_result.spectra[p], predictive_result.spectra[p]
            )

    def test_deterministic_replay(self, tasks, predictive_result):
        again = HybridRunner(_config(scheduler_kind="predictive")).run(tasks)
        assert again.makespan_s == predictive_result.makespan_s
        assert again.metrics.total_steals == predictive_result.metrics.total_steals


class TestConservation:
    def test_every_task_runs_exactly_once(self, tasks, predictive_result):
        m = predictive_result.metrics
        assert m.total_tasks == len(tasks)

    def test_steals_equal_donations(self, predictive_result):
        m = predictive_result.metrics
        assert int(m.steals.sum()) == int(m.donations.sum())

    def test_stealing_engages_on_skewed_load(self, predictive_result):
        assert predictive_result.metrics.total_steals > 0

    def test_predictions_recorded_per_gpu_task(self, predictive_result):
        m = predictive_result.metrics
        assert len(m.predictions) == int(m.gpu_tasks.sum())
        assert all(meas > 0.0 for _pred, meas in m.predictions)


class TestConfigValidation:
    def test_predictive_rejects_async_depth(self):
        with pytest.raises(ValueError, match="async_depth"):
            _config(scheduler_kind="predictive", async_depth=2)
