"""Task packing at ion / level / element granularity."""

import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.core.granularity import Granularity, WorkloadSpec, build_tasks
from repro.core.task import TaskKind


@pytest.fixture(scope="module")
def small_spec():
    return WorkloadSpec(n_points=2, bins_per_level=100, db_config=AtomicConfig.tiny())


class TestWorkloadSpec:
    def test_defaults_match_paper(self):
        spec = WorkloadSpec()
        assert spec.n_points == 24
        assert spec.bins_per_level == 50_000
        assert spec.granularity is Granularity.ION
        assert spec.evals_per_integral == 65  # Simpson-64

    def test_romberg_evals(self):
        spec = WorkloadSpec(method="romberg", k=7)
        assert spec.evals_per_integral == 129

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_points=0), dict(bins_per_level=0), dict(method="gauss")],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [dict(method="romberg", k=-1), dict(pieces=-1)], ids=["k", "pieces"]
    )
    def test_negative_rule_knobs_rejected_by_the_spec(self, kwargs):
        """A negative Romberg ``k`` priced tasks at 1.5 evals an integral;
        both knobs are refused where the workload is described."""
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    def test_zero_pieces_still_accepted(self):
        assert WorkloadSpec(pieces=0).evals_per_integral == 1


class TestIonGranularity:
    def test_task_count(self, small_spec):
        tasks = build_tasks(small_spec)
        assert len(tasks) == 2 * 36  # 2 points x 36 ions (z_max=8)

    def test_task_ids_dense(self, small_spec):
        tasks = build_tasks(small_spec)
        assert [t.task_id for t in tasks] == list(range(len(tasks)))

    def test_integrals_match_level_counts(self, small_spec):
        db = AtomicDatabase(small_spec.db_config)
        tasks = build_tasks(small_spec, db=db)
        for task in tasks[:36]:
            ion = next(i for i in db.ions if f"/{i.name}" in task.label)
            assert task.n_integrals == db.n_levels(ion) * 100
            assert task.n_levels == db.n_levels(ion)

    def test_points_tagged(self, small_spec):
        tasks = build_tasks(small_spec)
        assert {t.point_index for t in tasks} == {0, 1}

    def test_kind(self, small_spec):
        assert all(t.kind is TaskKind.ION for t in build_tasks(small_spec))


class TestLevelGranularity:
    def test_task_count_equals_total_levels(self, small_spec):
        from dataclasses import replace

        spec = replace(small_spec, granularity=Granularity.LEVEL)
        db = AtomicDatabase(spec.db_config)
        tasks = build_tasks(spec, db=db)
        assert len(tasks) == 2 * db.total_levels()
        assert all(t.n_levels == 1 for t in tasks)
        assert all(t.kind is TaskKind.LEVEL for t in tasks)

    def test_same_total_integrals_as_ion(self, small_spec):
        from dataclasses import replace

        ion_total = sum(t.n_integrals for t in build_tasks(small_spec))
        level_total = sum(
            t.n_integrals
            for t in build_tasks(replace(small_spec, granularity=Granularity.LEVEL))
        )
        assert ion_total == level_total


class TestElementGranularity:
    def test_one_task_per_element(self, small_spec):
        from dataclasses import replace

        spec = replace(small_spec, granularity=Granularity.ELEMENT)
        tasks = build_tasks(spec)
        assert len(tasks) == 2 * 8  # 2 points x 8 elements
        assert all(t.kind is TaskKind.ELEMENT for t in tasks)

    def test_same_total_integrals_as_ion(self, small_spec):
        from dataclasses import replace

        ion_total = sum(t.n_integrals for t in build_tasks(small_spec))
        elem_total = sum(
            t.n_integrals
            for t in build_tasks(replace(small_spec, granularity=Granularity.ELEMENT))
        )
        assert ion_total == elem_total


class TestExecuteFactories:
    def test_factories_attached(self, small_spec):
        calls = []

        def gpu_factory(ion, point):
            return lambda: calls.append(("gpu", ion.name, point))

        def cpu_factory(ion, point):
            return lambda: calls.append(("cpu", ion.name, point))

        tasks = build_tasks(
            small_spec, gpu_execute_factory=gpu_factory, cpu_execute_factory=cpu_factory
        )
        tasks[0].execute()
        tasks[1].run_cpu()
        assert calls[0][0] == "gpu"
        assert calls[1][0] == "cpu"


class TestPaperScale:
    def test_paper_workload_task_count(self):
        tasks = build_tasks(WorkloadSpec(n_points=1))
        assert len(tasks) == 496

    def test_paper_workload_integrals_per_point(self):
        tasks = build_tasks(WorkloadSpec(n_points=1))
        total = sum(t.n_integrals for t in tasks)
        assert 1.5e8 < total < 3.0e8  # Fig. 1: "up to 2.0e8"
