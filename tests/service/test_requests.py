"""Request typing, content addressing, and task compilation."""

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.core.task import TaskKind
from repro.service.requests import (
    SpectrumRequest,
    compile_tasks,
    ion_emission,
    request_grid,
)


@pytest.fixture(scope="module")
def db():
    return AtomicDatabase(AtomicConfig.tiny())


class TestValidation:
    def test_defaults_valid(self):
        SpectrumRequest(temperature_k=1e7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature_k": 0.0},
            {"temperature_k": 1e7, "ne_cm3": -1.0},
            {"temperature_k": 1e7, "z_max": 0},
            {"temperature_k": 1e7, "n_bins": 0},
            {"temperature_k": 1e7, "rule": "magic"},
            {"temperature_k": 1e7, "tolerance": 0.0},
            {"temperature_k": 1e7, "tail_tol": -1e-9},
            {"temperature_k": 1e7, "accuracy": -1e-3},
            *(
                {"temperature_k": 1e7, **{name: bad}}
                for name in ("temperature_k", "ne_cm3", "tolerance", "tail_tol", "accuracy")
                for bad in (float("nan"), float("inf"))
            ),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SpectrumRequest(**kwargs)


class TestContentAddress:
    def test_equal_requests_equal_keys(self):
        a = SpectrumRequest(temperature_k=1.0e7, n_bins=64)
        b = SpectrumRequest(temperature_k=10_000_000.0, n_bins=64)
        assert a.key == b.key

    @pytest.mark.parametrize(
        "other",
        [
            {"temperature_k": 1.1e7},
            {"temperature_k": 1e7, "ne_cm3": 2.0},
            {"temperature_k": 1e7, "z_max": 6},
            {"temperature_k": 1e7, "n_bins": 32},
            {"temperature_k": 1e7, "rule": "romberg"},
            {"temperature_k": 1e7, "tolerance": 1e-8},
            {"temperature_k": 1e7, "tail_tol": 1e-9},
            {"temperature_k": 1e7, "tail_tol": 1e-6},
        ],
    )
    def test_any_field_changes_key(self, other):
        assert SpectrumRequest(temperature_k=1e7).key != SpectrumRequest(**other).key

    def test_key_stable_across_processes(self):
        # The address must be content-derived (no id()/hash randomization).
        req = SpectrumRequest(temperature_k=1e7)
        assert req.key == req.key
        assert len(req.key) == 40  # sha1 hex


class TestQuadraturePricing:
    def test_tighter_tolerance_costs_more(self):
        loose = SpectrumRequest(temperature_k=1e7, tolerance=1e-4)
        tight = SpectrumRequest(temperature_k=1e7, tolerance=1e-8)
        assert tight.evals_per_integral > loose.evals_per_integral

    def test_romberg_depth_bounded(self):
        req = SpectrumRequest(temperature_k=1e7, rule="romberg", tolerance=1e-30)
        assert req.evals_per_integral == 2**13 + 1


class TestCompileTasks:
    def test_one_task_per_ion_in_scope(self, db):
        req = SpectrumRequest(temperature_k=1e7, z_max=6)
        tasks = compile_tasks(req, db)
        expected = sum(1 for ion in db.ions if ion.z <= 6)
        assert len(tasks) == expected
        assert all(t.kind is TaskKind.ION for t in tasks)
        assert all(t.point_index == 0 for t in tasks)

    def test_task_ids_dense_from_base(self, db):
        req = SpectrumRequest(temperature_k=1e7, z_max=4)
        tasks = compile_tasks(req, db, point_index=3, task_id_base=10)
        assert [t.task_id for t in tasks] == list(range(10, 10 + len(tasks)))
        assert all(t.point_index == 3 for t in tasks)

    def test_rejects_out_of_scope_subset(self, db):
        req = SpectrumRequest(temperature_k=1e7, z_max=30)
        with pytest.raises(ValueError, match="exceeds database"):
            compile_tasks(req, db)

    def test_both_paths_same_answer(self, db):
        req = SpectrumRequest(temperature_k=1e7, z_max=4, n_bins=16)
        task = compile_tasks(req, db)[0]
        np.testing.assert_array_equal(task.kernel.execute(), task.run_cpu())

    def test_grid_shared_per_bin_count(self):
        a = request_grid(SpectrumRequest(temperature_k=1e7, n_bins=48))
        b = request_grid(SpectrumRequest(temperature_k=3e6, ne_cm3=2.0, n_bins=48))
        assert a is b and a.n_bins == 48
        assert not a.edges.flags.writeable
        assert request_grid(SpectrumRequest(temperature_k=1e7, n_bins=47)) is not a

    def test_emission_deterministic_and_positive(self, db):
        req = SpectrumRequest(temperature_k=1e7, n_bins=32)
        ion = db.ions[0]
        a = ion_emission(ion, db.n_levels(ion), req)
        b = ion_emission(ion, db.n_levels(ion), req)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (32,)
        assert np.all(a >= 0.0)

    def test_emission_scales_with_density(self, db):
        ion = db.ions[0]
        one = ion_emission(ion, 3, SpectrumRequest(temperature_k=1e7, ne_cm3=1.0))
        two = ion_emission(ion, 3, SpectrumRequest(temperature_k=1e7, ne_cm3=2.0))
        np.testing.assert_allclose(two, 2.0 * one)


class TestPrunedPricing:
    def test_tail_tol_shrinks_priced_workload(self, db):
        dense = compile_tasks(SpectrumRequest(temperature_k=1e7), db)
        pruned = compile_tasks(
            SpectrumRequest(temperature_k=1e7, tail_tol=1e-9), db
        )
        e_dense = sum(t.kernel.total_evals for t in dense)
        e_pruned = sum(t.kernel.total_evals for t in pruned)
        saved = sum(t.kernel.evals_saved for t in pruned)
        assert e_pruned < e_dense
        # The ledger must balance: active + saved == dense workload.
        assert e_pruned + saved == e_dense
        assert all(t.kernel.evals_saved == 0 for t in dense)

    def test_looser_tail_tol_saves_more(self, db):
        def saved(tt):
            tasks = compile_tasks(
                SpectrumRequest(temperature_k=1e6, tail_tol=tt), db
            )
            return sum(t.kernel.evals_saved for t in tasks)

        assert saved(1e-6) >= saved(1e-9) >= saved(1e-12)

    def test_pruning_never_changes_the_answer(self, db):
        import numpy as np

        dense = compile_tasks(SpectrumRequest(temperature_k=1e7), db)
        pruned = compile_tasks(
            SpectrumRequest(temperature_k=1e7, tail_tol=1e-9), db
        )
        for a, b in zip(dense, pruned):
            assert np.array_equal(a.kernel.execute(), b.kernel.execute())
