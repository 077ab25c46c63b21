"""Task records and the one pricing function."""

import numpy as np
import pytest

from repro.cluster.simclock import SimClock
from repro.core.task import (
    BYTES_PER_BIN_RESULT,
    BYTES_PER_LEVEL_PARAMS,
    Task,
    TaskKind,
    task_cost,
)
from repro.gpusim.device import TESLA_C2075, SimulatedGPU


def make_task(**over):
    base = dict(
        task_id=0, kind=TaskKind.ION, n_levels=4, n_integrals=100, evals_per_integral=65
    )
    base.update(over)
    return Task(**base)


def device_payload(task: Task) -> object:
    """What a device hands back on completing ``task``."""
    clock = SimClock()
    done = SimulatedGPU(clock, TESLA_C2075).submit(task)
    clock.run()
    return done.payload


class TestTask:
    def test_total_evals(self):
        assert make_task().total_evals == 6500

    def test_run_gpu_without_execute_returns_none(self):
        assert device_payload(make_task()) is None

    def test_run_gpu_with_execute(self):
        assert device_payload(make_task(execute=lambda: [1, 2])) == [1, 2]

    def test_run_cpu(self):
        t = make_task(cpu_execute=lambda: "cpu-result")
        assert t.run_cpu() == "cpu-result"
        assert make_task().run_cpu() is None

    def test_a_record_has_slots_and_no_value_equality(self):
        t = make_task()
        assert not hasattr(t, "__dict__")
        assert t != make_task() and t == t

    def test_kind_enum_values(self):
        assert TaskKind.ION.value == "ion"
        assert TaskKind.LEVEL.value == "level"
        assert TaskKind.ELEMENT.value == "element"
        assert TaskKind.NEI_CHUNK.value == "nei"

    def test_cpu_evals_override_default_none(self):
        assert make_task().cpu_evals_per_integral is None
        assert make_task(cpu_evals_per_integral=3600).cpu_evals_per_integral == 3600


class TestTaskCost:
    def test_total_evals(self):
        task = make_task(**task_cost(n_levels=8, n_bins=1000, evals_per_integral=65))
        assert task.total_evals == 8 * 1000 * 65
        assert task.n_levels == 8 and task.evals_saved == 0

    def test_ion_task_accumulates_on_device(self):
        """Ion tasks return ONE bin array regardless of level count."""
        k8 = task_cost(n_levels=8, n_bins=1000, evals_per_integral=65)
        k1 = task_cost(n_levels=1, n_bins=1000, evals_per_integral=65)
        assert k8["bytes_out"] == k1["bytes_out"] == 1000 * BYTES_PER_BIN_RESULT
        assert k8["bytes_in"] == 8 * BYTES_PER_LEVEL_PARAMS
        assert k8["n_integrals"] == 8 * 1000

    def test_level_task_transfers_per_level(self):
        """Level granularity pays one result transfer per level — the
        paper's 'frequent memory copy' cost."""
        ion = task_cost(n_levels=8, n_bins=1000, evals_per_integral=65)
        levels = [task_cost(1, 1000, 65) for _ in range(8)]
        assert sum(l["bytes_out"] for l in levels) == 8 * ion["bytes_out"]
        assert sum(l["bytes_in"] for l in levels) == ion["bytes_in"]
        assert sum(l["n_integrals"] for l in levels) == ion["n_integrals"]

    def test_active_pairs_book_the_pruned_evals(self):
        cost = task_cost(4, 100, 65, n_active=150)
        assert cost["n_integrals"] == 150
        assert cost["evals_saved"] == (400 - 150) * 65

    @pytest.mark.parametrize("n_active", [-1, 401])
    def test_active_pairs_out_of_range_refused(self, n_active):
        with pytest.raises(ValueError, match=r"n_active must be in \[0, 400\]"):
            task_cost(4, 100, 65, n_active=n_active)

    def test_a_template_prices_every_ion_at_once(self):
        levels = np.array([0, 3, 8])
        cost = task_cost(levels, 16, 129)
        for i, n in enumerate(levels.tolist()):
            for name, value in task_cost(n, 16, 129).items():
                assert (cost[name][i] if np.ndim(cost[name]) else cost[name]) == value
