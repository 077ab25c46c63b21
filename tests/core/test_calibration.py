"""Cost model: paper-anchor consistency."""

import dataclasses

import pytest

from repro.core.calibration import CostModel, measure_live_eval_rates


class TestCostModel:
    def test_prep_splits_fixed_and_per_level(self):
        c = CostModel()
        assert c.prep_s(0) == pytest.approx(c.prep_fixed_s)
        assert c.prep_s(10) == pytest.approx(c.prep_fixed_s + 10 * c.prep_per_level_s)

    def test_prep_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            CostModel().prep_s(-1)

    def test_cpu_hierarchy(self):
        """serial < mpi-contended < (fallback relation per penalty)."""
        c = CostModel()
        n = 10_000
        serial = c.cpu_task_serial_s(n)
        mpi = c.cpu_task_mpi_s(n)
        fallback = c.cpu_task_fallback_s(n)
        assert serial < mpi
        assert serial < fallback
        assert mpi == pytest.approx(serial * c.mpi_contention)
        assert fallback == pytest.approx(serial * c.cpu_fallback_penalty)

    def test_custom_evals_per_integral(self):
        c = CostModel()
        default = c.cpu_task_serial_s(100)
        nei = c.cpu_task_serial_s(100, evals_per_integral=3600)
        assert nei / default == pytest.approx(3600 / c.cpu_qags_evals_per_integral)

    def test_with_overrides(self):
        c = CostModel().with_overrides(cpu_fallback_penalty=9.0)
        assert c.cpu_fallback_penalty == 9.0
        assert CostModel().cpu_fallback_penalty != 9.0

    @pytest.mark.parametrize(
        "kwargs", [dict(cpu_eval_s=0.0), dict(mpi_contention=-1.0), dict(prep_fixed_s=-0.1)]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CostModel(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CostModel)])
    def test_non_finite_constant_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CostModel(**{name: value})


def _point_s(c: CostModel, integrals_s: float, prep_s: float) -> float:
    """One grid point's wall time: its integrals, its prep, the per-point
    overhead."""
    return integrals_s + prep_s + c.point_overhead_s


class TestPaperAnchors:
    """The calibrated constants must keep reproducing the paper's numbers."""

    def test_serial_point_near_1440_seconds(self, des_db):
        c = CostModel()
        levels = des_db.total_levels()
        n_int = levels * 50_000
        prep = sum(c.prep_s(des_db.n_levels(i)) for i in des_db.ions)
        t = _point_s(c, c.cpu_task_serial_s(n_int), prep)
        assert 1200.0 < t < 1700.0  # the reconciled ~1440 s/point

    def test_mpi_speedup_near_13_5(self, des_db):
        c = CostModel()
        levels = des_db.total_levels()
        n_int = levels * 50_000
        prep = sum(c.prep_s(des_db.n_levels(i)) for i in des_db.ions)
        serial = _point_s(c, c.cpu_task_serial_s(n_int), prep)
        mpi = _point_s(c, c.cpu_task_mpi_s(n_int), prep)
        # 24 ranks, one point each: speedup = serial/mpi * 24... no —
        # each rank handles one point concurrently, so speedup is
        # 24*serial / mpi_per_point ... with 24 points: serial_total =
        # 24*serial, parallel = mpi (all ranks concurrent).
        speedup = 24.0 * serial / (24.0 * mpi / 24.0)
        assert speedup == pytest.approx(13.5, rel=0.08)

    def test_integral_fraction_over_90_percent(self, des_db):
        """'the integral operations account for more than 90% of the total'."""
        c = CostModel()
        n_int = des_db.total_levels() * 50_000
        prep = sum(c.prep_s(des_db.n_levels(i)) for i in des_db.ions)
        integral = c.cpu_task_serial_s(n_int)
        total = _point_s(c, integral, prep)
        assert integral / total > 0.9


class TestLiveMeasurement:
    def test_measures_both_rates(self):
        import numpy as np

        rates = measure_live_eval_rates(lambda x: np.exp(-x), n_evals=50_000)
        assert rates["vectorized_evals_per_s"] > 0
        assert rates["scalar_evals_per_s"] > 0
        # The entire premise of the batch kernel: vectorized >> scalar.
        assert rates["vectorized_evals_per_s"] > 10 * rates["scalar_evals_per_s"]
