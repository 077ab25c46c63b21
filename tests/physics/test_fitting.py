"""Spectral fitting: response, mock observation, temperature recovery."""

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.physics.apec import GridPoint, SerialAPEC
from repro.physics.fitting import (
    InstrumentResponse,
    chi_squared,
    fit_temperature,
    mock_observation,
)
from repro.physics.spectrum import EnergyGrid, Spectrum


@pytest.fixture(scope="module")
def fit_setup():
    db = AtomicDatabase(AtomicConfig.tiny())
    grid = EnergyGrid.from_wavelength(10.0, 45.0, 80)
    apec = SerialAPEC(db, grid, method="simpson-batch")
    response = InstrumentResponse(grid, fwhm_kev=0.02)
    return db, grid, apec, response


class TestInstrumentResponse:
    def test_counts_conserved_on_grid_interior(self, fit_setup):
        _db, grid, _apec, response = fit_setup
        flux = np.zeros(grid.n_bins)
        flux[grid.n_bins // 2] = 1.0  # a line mid-grid
        folded = response.apply(flux)
        assert folded.sum() == pytest.approx(1.0, rel=1e-6)

    def test_smears_sharp_features(self, fit_setup):
        _db, grid, _apec, response = fit_setup
        flux = np.zeros(grid.n_bins)
        flux[grid.n_bins // 2] = 1.0
        folded = response.apply(flux)
        assert np.count_nonzero(folded > 1e-6) > 1
        assert folded.max() < 1.0

    def test_effective_area_scales(self, fit_setup):
        _db, grid, _apec, _ = fit_setup
        flux = np.full(grid.n_bins, 1.0)
        r1 = InstrumentResponse(grid, fwhm_kev=0.02, effective_area=1.0)
        r5 = InstrumentResponse(grid, fwhm_kev=0.02, effective_area=5.0)
        assert r5.apply(flux).sum() == pytest.approx(5.0 * r1.apply(flux).sum())

    def test_validation(self, fit_setup):
        _db, grid, _apec, response = fit_setup
        with pytest.raises(ValueError):
            InstrumentResponse(grid, fwhm_kev=0.0)
        with pytest.raises(ValueError):
            response.apply(np.zeros(3))


class TestMockObservation:
    def test_deterministic_without_rng(self, fit_setup):
        _db, grid, apec, response = fit_setup
        spec = apec.compute(GridPoint(temperature_k=1e7, ne_cm3=1.0))
        a = mock_observation(spec, response, exposure=100.0)
        b = mock_observation(spec, response, exposure=100.0)
        assert np.array_equal(a, b)

    def test_poisson_with_seeded_rng(self, fit_setup):
        _db, grid, apec, response = fit_setup
        spec = apec.compute(GridPoint(temperature_k=1e7, ne_cm3=1.0))
        exposure = 1e10 / max(spec.values.max(), 1e-30)
        a = mock_observation(spec, response, exposure, np.random.default_rng(1))
        b = mock_observation(spec, response, exposure, np.random.default_rng(1))
        c = mock_observation(spec, response, exposure, np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(a == np.round(a))  # integer counts

    def test_exposure_validation(self, fit_setup):
        _db, grid, apec, response = fit_setup
        spec = apec.compute(GridPoint(temperature_k=1e7, ne_cm3=1.0))
        with pytest.raises(ValueError):
            mock_observation(spec, response, exposure=0.0)


class TestChiSquared:
    def test_zero_for_perfect_model(self):
        m = np.array([5.0, 10.0, 2.0])
        assert chi_squared(m, m) == 0.0

    def test_positive_for_mismatch(self):
        assert chi_squared(np.array([5.0]), np.array([8.0])) > 0.0

    def test_variance_floor(self):
        # Model 0 counts would divide by zero without the floor.
        assert np.isfinite(chi_squared(np.array([0.0]), np.array([3.0])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            chi_squared(np.zeros(2), np.zeros(3))


class TestTemperatureFit:
    def test_recovers_true_temperature(self, fit_setup):
        _db, grid, apec, response = fit_setup
        t_true = 1.1e7
        truth = apec.compute(GridPoint(temperature_k=t_true, ne_cm3=1.0))
        exposure = 1e5 / max(response.apply(truth.values).max(), 1e-30)
        observed = mock_observation(truth, response, exposure)
        result = fit_temperature(
            apec, observed, response, exposure, t_bounds=(2e6, 5e7)
        )
        assert result.temperature_k == pytest.approx(t_true, rel=0.05)
        assert result.n_model_evals < 60

    def test_noisy_fit_close(self, fit_setup):
        _db, grid, apec, response = fit_setup
        t_true = 8.0e6
        truth = apec.compute(GridPoint(temperature_k=t_true, ne_cm3=1.0))
        exposure = 3e6 / max(response.apply(truth.values).max(), 1e-30)
        observed = mock_observation(
            truth, response, exposure, rng=np.random.default_rng(42)
        )
        result = fit_temperature(
            apec, observed, response, exposure, t_bounds=(2e6, 5e7)
        )
        assert result.temperature_k == pytest.approx(t_true, rel=0.15)

    def test_chi2_curve_sorted(self, fit_setup):
        _db, grid, apec, response = fit_setup
        truth = apec.compute(GridPoint(temperature_k=1e7, ne_cm3=1.0))
        exposure = 1e4 / max(response.apply(truth.values).max(), 1e-30)
        observed = mock_observation(truth, response, exposure)
        result = fit_temperature(
            apec, observed, response, exposure, t_bounds=(5e6, 3e7), max_evals=12
        )
        ts, c2s = result.chi2_curve()
        assert np.all(np.diff(ts) > 0)
        assert len(ts) == result.n_model_evals

    def test_bounds_validation(self, fit_setup):
        _db, grid, apec, response = fit_setup
        with pytest.raises(ValueError):
            fit_temperature(apec, np.zeros(grid.n_bins), response, 1.0, (2e7, 1e7))
