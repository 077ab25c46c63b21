"""Energy grids and Spectrum algebra."""

import numpy as np
import pytest

from repro.constants import HC_KEV_ANGSTROM
from repro.physics.spectrum import EnergyGrid, Spectrum


class TestEnergyGrid:
    def test_linear_grid(self):
        g = EnergyGrid.linear(0.5, 2.5, 4)
        assert g.n_bins == 4
        assert np.allclose(g.widths, 0.5)
        assert np.allclose(g.centers, [0.75, 1.25, 1.75, 2.25])

    def test_from_wavelength_window(self):
        g = EnergyGrid.from_wavelength(10.0, 45.0, 100)
        assert g.n_bins == 100
        assert g.edges[0] == pytest.approx(HC_KEV_ANGSTROM / 45.0)
        assert g.edges[-1] == pytest.approx(HC_KEV_ANGSTROM / 10.0)
        assert np.all(np.diff(g.edges) > 0.0)

    def test_wavelength_centers_within_window(self):
        g = EnergyGrid.from_wavelength(10.0, 45.0, 50)
        wl = g.wavelength_centers
        assert np.all((wl > 10.0) & (wl < 45.0))

    @pytest.mark.parametrize(
        "edges",
        [[1.0], [1.0, 1.0], [2.0, 1.0], [-1.0, 1.0], [0.0, 1.0]],
    )
    def test_invalid_edges(self, edges):
        with pytest.raises(ValueError):
            EnergyGrid(np.array(edges, dtype=float))

    def test_edges_frozen(self):
        g = EnergyGrid.linear(1.0, 2.0, 4)
        with pytest.raises(ValueError):
            g.edges[0] = 0.5

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_linear_needs_bins(self, n_bins):
        with pytest.raises(ValueError):
            EnergyGrid.linear(1.0, 2.0, n_bins)

    def test_wavelength_window_validation(self):
        with pytest.raises(ValueError):
            EnergyGrid.from_wavelength(45.0, 10.0, 10)


class TestSpectrum:
    def test_zeros_and_accumulate(self):
        g = EnergyGrid.linear(1.0, 2.0, 5)
        s = Spectrum.zeros(g, temperature_k=1e7)
        s.accumulate(np.ones(5))
        s.accumulate(np.full(5, 2.0))
        assert np.allclose(s.values, 3.0)
        assert s.meta["temperature_k"] == 1e7

    def test_shape_mismatch_rejected(self):
        g = EnergyGrid.linear(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            Spectrum(grid=g, values=np.ones(4))
        s = Spectrum.zeros(g)
        with pytest.raises(ValueError):
            s.accumulate(np.ones(4))

    def test_addition(self):
        g = EnergyGrid.linear(1.0, 2.0, 3)
        a = Spectrum(grid=g, values=np.array([1.0, 2.0, 3.0]))
        b = Spectrum(grid=g, values=np.array([0.5, 0.5, 0.5]))
        c = a + b
        assert np.allclose(c.values, [1.5, 2.5, 3.5])
        a += b
        assert np.allclose(a.values, c.values)

    def test_addition_keeps_left_meta(self):
        # Regression: __add__ used to drop meta while __iadd__ kept it.
        g = EnergyGrid.linear(1.0, 2.0, 3)
        a = Spectrum.zeros(g, temperature_k=1e7, tag="left")
        b = Spectrum.zeros(g, tag="right")
        c = a + b
        assert c.meta == {"temperature_k": 1e7, "tag": "left"}
        # ... and the result's meta is a copy, not a shared dict.
        c.meta["tag"] = "mutated"
        assert a.meta["tag"] == "left"
        a += b
        assert a.meta["tag"] == "left"

    def test_cross_grid_addition_rejected(self):
        a = Spectrum.zeros(EnergyGrid.linear(1.0, 2.0, 3))
        b = Spectrum.zeros(EnergyGrid.linear(1.0, 3.0, 3))
        with pytest.raises(ValueError):
            _ = a + b

    def test_normalized_peak_is_one(self):
        g = EnergyGrid.linear(1.0, 2.0, 4)
        s = Spectrum(grid=g, values=np.array([1.0, 4.0, 2.0, 0.5]))
        n = s.normalized()
        assert n.values.max() == pytest.approx(1.0)
        assert np.allclose(n.values, s.values / 4.0)
        # original untouched
        assert s.values.max() == 4.0

    def test_normalized_zero_spectrum(self):
        s = Spectrum.zeros(EnergyGrid.linear(1.0, 2.0, 4))
        assert np.all(s.normalized().values == 0.0)

    def test_total(self):
        g = EnergyGrid.linear(1.0, 2.0, 4)
        s = Spectrum(grid=g, values=np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.total() == 10.0

    def test_relative_error_percent(self):
        g = EnergyGrid.linear(1.0, 2.0, 4)
        ref = Spectrum(grid=g, values=np.array([1.0, 2.0, 0.0, 4.0]))
        got = Spectrum(grid=g, values=np.array([1.01, 2.0, 0.0, 3.8]))
        err = got.relative_error_percent(ref)
        assert err[0] == pytest.approx(1.0)
        assert err[1] == 0.0
        assert err[2] == 0.0  # both zero -> agreement
        assert err[3] == pytest.approx(-5.0)

    def test_relative_error_nan_for_disagreeing_zero_reference(self):
        g = EnergyGrid.linear(1.0, 2.0, 2)
        ref = Spectrum(grid=g, values=np.array([0.0, 1.0]))
        got = Spectrum(grid=g, values=np.array([0.5, 1.0]))
        err = got.relative_error_percent(ref)
        assert np.isnan(err[0])
