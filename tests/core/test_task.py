"""Task descriptors."""

import pytest

from repro.cluster.simclock import SimClock
from repro.core.task import Task, TaskKind
from repro.gpusim.device import TESLA_C2075, SimulatedGPU
from repro.gpusim.kernel import KernelSpec


def make_task(**over):
    base = dict(
        task_id=0,
        kind=TaskKind.ION,
        kernel=KernelSpec(n_integrals=100, evals_per_integral=65),
        n_levels=4,
    )
    base.update(over)
    return Task(**base)


def device_payload(task: Task) -> object:
    """What a device hands back on completing ``task``'s kernel."""
    clock = SimClock()
    done = SimulatedGPU(clock, TESLA_C2075).submit(task.kernel)
    clock.run()
    return done.payload


class TestTask:
    def test_n_integrals_from_kernel(self):
        assert make_task().n_integrals == 100

    def test_run_gpu_without_execute_returns_none(self):
        assert device_payload(make_task()) is None

    def test_run_gpu_with_execute(self):
        k = KernelSpec(n_integrals=1, evals_per_integral=1, execute=lambda: [1, 2])
        assert device_payload(make_task(kernel=k)) == [1, 2]

    def test_run_cpu(self):
        t = make_task(cpu_execute=lambda: "cpu-result")
        assert t.run_cpu() == "cpu-result"
        assert make_task().run_cpu() is None

    @pytest.mark.parametrize("kwargs", [dict(task_id=-1), dict(n_levels=-2)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            make_task(**kwargs)

    def test_kind_enum_values(self):
        assert TaskKind.ION.value == "ion"
        assert TaskKind.LEVEL.value == "level"
        assert TaskKind.ELEMENT.value == "element"
        assert TaskKind.NEI_CHUNK.value == "nei"

    def test_cpu_evals_override_default_none(self):
        assert make_task().cpu_evals_per_integral is None
        assert make_task(cpu_evals_per_integral=3600).cpu_evals_per_integral == 3600
