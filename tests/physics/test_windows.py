"""Active-window construction and its accuracy budget.

The windows module promises that dropping everything outside
``[first_bin(I_l), cutoff_bin(I_l + tau)]`` discards at most ``tail_tol``
of a level's total above-edge emission.  These tests pin that promise
against the closed-form tail mass (:func:`analytic_bin_integral`).
"""

import numpy as np
import pytest

from repro.physics.rrc import RRCLevelParams, analytic_bin_integral, gaunt_factor
from repro.physics.spectrum import EnergyGrid
from repro.physics.windows import (
    GAUNT_SUP,
    LevelWindows,
    gaunt_range_bounds,
    level_windows,
    tail_cutoff_kev,
)


class TestGauntBounds:
    def test_sup_bounds_dense_sample(self):
        # The factor peaks near x ~ 4.9 at ~1.0249; GAUNT_SUP must cover
        # it everywhere, with a margin small enough to stay a useful bound.
        x = np.geomspace(1.0, 1e6, 200_001)
        g = gaunt_factor(x)
        assert float(g.max()) < GAUNT_SUP
        assert float(g.max()) > 1.02

    def test_range_bounds_unimodal_endpoints(self):
        # Infimum over [1, x_max] sits at an endpoint of the interval.
        for x_max in (1.0, 2.0, 4.9, 50.0, 1e4):
            g_inf, g_sup = gaunt_range_bounds(x_max)
            x = np.linspace(1.0, x_max, 50_001)
            g = gaunt_factor(x)
            assert g_inf <= float(g.min()) + 1e-12
            assert g_sup >= float(g.max())

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            gaunt_range_bounds(0.5)


class TestTailCutoff:
    def test_zero_tol_disables(self):
        assert tail_cutoff_kev(1.0, 0.0) == np.inf

    def test_no_gaunt_closed_form(self):
        kt = 0.8617
        tol = 1e-9
        assert tail_cutoff_kev(kt, tol, gaunt=False) == pytest.approx(
            kt * np.log(1.0 / tol)
        )

    def test_gaunt_widens_cutoff(self):
        plain = tail_cutoff_kev(1.0, 1e-9, gaunt=False)
        wide = tail_cutoff_kev(1.0, 1e-9, gaunt=True, x_max=100.0)
        assert wide > plain

    def test_monotone_in_tolerance(self):
        taus = [tail_cutoff_kev(1.0, t) for t in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert taus == sorted(taus)

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_cutoff_kev(0.0, 1e-9)
        with pytest.raises(ValueError):
            tail_cutoff_kev(1.0, -1e-9)


class TestLevelWindows:
    def test_below_edge_bins_excluded(self):
        grid = EnergyGrid.linear(0.1, 10.1, 100)  # 0.1 keV bins
        win = level_windows(np.array([2.05]), grid, 1.0, 0.0, gaunt=False)
        # Bin 19 spans [2.0, 2.1] and straddles the edge -> first active.
        assert win.first[0] == 19
        assert win.cutoff[0] == grid.n_bins

    def test_zero_tol_keeps_everything_above_edge(self):
        grid = EnergyGrid.linear(0.1, 10.0, 50)
        win = level_windows(np.array([1.0, 5.0]), grid, 0.5, 0.0)
        assert np.isinf(win.tau_kev)
        assert (win.cutoff == grid.n_bins).all()

    def test_edge_above_grid_gives_empty_window(self):
        grid = EnergyGrid.linear(0.1, 1.0, 10)
        win = level_windows(np.array([5.0]), grid, 1.0, 1e-9)
        assert win.first[0] == win.cutoff[0]
        assert win.n_active == 0

    def test_counts_and_totals(self):
        grid = EnergyGrid.linear(0.1, 10.0, 100)
        win = level_windows(np.array([1.0, 3.0, 20.0]), grid, 1.0, 0.0)
        assert win.first.size == 3
        assert win.n_active == int((win.cutoff - win.first).sum())
        assert win.n_active < win.first.size * grid.n_bins

    def test_tail_mass_bound_pins_analytic_integral(self):
        # Sum the *exact* per-bin masses beyond the cutoff and check the
        # reported bound covers them (gaunt=False: the bound is the exact
        # analytic tail from the first dropped bin's lower edge).
        kt = 0.25
        edge = 1.3
        params = RRCLevelParams(
            binding_kev=edge,
            n=2,
            c_eff=3.0,
            g_level=8.0,
            kt_kev=kt,
            ne_cm3=1.0,
            n_ion_cm3=1.0,
        )
        grid = EnergyGrid.linear(0.1, 40.0, 400)
        win = level_windows(np.array([edge]), grid, kt, 1e-6, gaunt=False)
        cut = int(win.cutoff[0])
        assert cut < grid.n_bins  # the cutoff must bind for this test
        dropped_exact = sum(
            analytic_bin_integral(grid.lower[b], grid.upper[b], params)
            for b in range(cut, grid.n_bins)
        )
        # Normalize out the flat constant C: analytic_bin_integral over
        # the whole axis equals C * kT for the gaunt-free integrand.
        c_flat = analytic_bin_integral(0.0, 1.0e6, params) / kt
        analytic_tail = c_flat * kt * np.exp(-(grid.lower[cut] - edge) / kt)
        assert dropped_exact <= analytic_tail * (1.0 + 1e-12)
        # ... and the budget holds: dropped <= tail_tol * total mass C*kT.
        assert dropped_exact <= 1e-6 * c_flat * kt

    def test_empty_levels(self):
        grid = EnergyGrid.linear(0.1, 1.0, 4)
        win = level_windows(np.zeros(0), grid, 1.0, 1e-9)
        assert win.first.size == 0
        assert win.n_active == 0

    def test_validation(self):
        grid = EnergyGrid.linear(0.1, 1.0, 4)
        with pytest.raises(ValueError):
            level_windows(np.array([-1.0]), grid, 1.0, 1e-9)
        with pytest.raises(ValueError):
            level_windows(np.array([[1.0]]), grid, 1.0, 1e-9)
        with pytest.raises(ValueError):
            level_windows(np.array([1.0]), grid, 1.0, -0.5)

    def test_frozen(self):
        grid = EnergyGrid.linear(0.1, 1.0, 4)
        win = level_windows(np.array([0.5]), grid, 1.0, 1e-9)
        assert isinstance(win, LevelWindows)
        with pytest.raises(Exception):
            win.tau_kev = 0.0
