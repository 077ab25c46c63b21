"""The bench-harness utilities (workloads + reporting)."""

import pytest

from repro.bench.reporting import format_series, format_table, paper_vs_measured
from repro.bench.workloads import (
    paper_level_workload,
    paper_workload,
    romberg_workload,
    small_real_database,
    small_real_grid,
)
from repro.core.task import TaskKind


class TestWorkloads:
    def test_paper_workload_scale(self):
        tasks = paper_workload(n_points=2)
        assert len(tasks) == 2 * 496
        assert all(t.kind is TaskKind.ION for t in tasks)

    def test_level_workload_finer(self):
        level = paper_level_workload(n_points=1)
        ion = paper_workload(n_points=1)
        assert len(level) > len(ion)
        assert sum(t.n_integrals for t in level) == sum(t.n_integrals for t in ion)

    def test_romberg_workload_base_cost_matches_simpson(self):
        """The Table I premise: the k=7 task costs what a Simpson task
        costs (half the bins, double the evals per integral)."""
        simpson = paper_workload(n_points=1)
        romberg7 = romberg_workload(k=7, n_points=1)
        s_evals = sum(t.total_evals for t in simpson)
        r_evals = sum(t.total_evals for t in romberg7)
        assert r_evals == pytest.approx(s_evals, rel=0.01)

    def test_romberg_cost_doubles_per_k(self):
        e9 = sum(t.total_evals for t in romberg_workload(k=9, n_points=1))
        e11 = sum(t.total_evals for t in romberg_workload(k=11, n_points=1))
        assert e11 / e9 == pytest.approx(4.0, rel=0.01)

    def test_real_grid_window(self):
        grid = small_real_grid(100)
        wl = grid.wavelength_centers
        assert wl.min() > 10.0 and wl.max() < 45.0

    def test_real_database_modest(self):
        db = small_real_database()
        assert 50 < len(db.ions) < 496


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 40]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[1:]}) == 1  # fixed width

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series_merges_x(self):
        out = format_series(
            "x", {"s1": {1: 1.0, 2: 2.0}, "s2": {2: 4.0, 3: 9.0}}
        )
        assert "s1" in out and "s2" in out
        assert out.count("-") >= 2  # missing cells rendered as '-'

    def test_paper_vs_measured_ratio(self):
        out = paper_vs_measured("L", {1: 10.0}, {1: 12.0})
        assert "1.20x" in out

    def test_paper_vs_measured_missing_entry(self):
        out = paper_vs_measured("L", {1: 10.0, 2: 5.0}, {1: 10.0})
        assert "-" in out
