"""Ionization / recombination rate coefficients."""

import numpy as np
import pytest

from repro.atomic.rates import (
    dielectronic_recombination_rate,
    ionization_potential,
    ionization_rate,
    ladder_rates,
    radiative_recombination_rate,
    recombination_rate,
)


class TestIonizationPotential:
    def test_hydrogen(self):
        from repro.constants import RYDBERG_KEV

        assert ionization_potential(1, 0) == pytest.approx(RYDBERG_KEV)

    def test_increases_with_charge(self):
        pots = [ionization_potential(8, c) for c in range(8)]
        assert pots[-1] > pots[0]

    def test_invalid_charges(self):
        with pytest.raises(ValueError):
            ionization_potential(8, 8)  # bare nucleus cannot ionize
        with pytest.raises(ValueError):
            ionization_potential(8, -1)


class TestIonizationRate:
    def test_positive_and_finite(self):
        t = np.logspace(4, 9, 30)
        s = ionization_rate(8, 3, t)
        assert np.all(np.isfinite(s))
        assert np.all(s >= 0.0)

    def test_suppressed_at_low_temperature(self):
        s_cold = ionization_rate(8, 6, np.array([1e4]))[0]
        s_hot = ionization_rate(8, 6, np.array([1e7]))[0]
        assert s_hot > s_cold * 1e3

    def test_rises_through_threshold_region(self):
        """S(T) grows with T until kT ~ dE (the Boltzmann factor)."""
        t = np.logspace(5, 7, 20)
        s = ionization_rate(8, 6, t)
        assert np.all(np.diff(s) > 0.0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            ionization_rate(8, 3, np.array([0.0]))

    def test_vectorized(self):
        s = ionization_rate(26, 10, np.array([1e6, 1e7, 1e8]))
        assert s.shape == (3,)


class TestRecombinationRates:
    def test_radiative_decreases_with_temperature(self):
        t = np.logspace(4, 8, 20)
        alpha = radiative_recombination_rate(8, 7, t)
        assert np.all(np.diff(alpha) < 0.0)

    def test_radiative_grows_with_charge(self):
        t = np.array([1e6])
        a_low = radiative_recombination_rate(26, 2, t)[0]
        a_high = radiative_recombination_rate(26, 20, t)[0]
        assert a_high > a_low

    def test_dielectronic_zero_for_bare(self):
        t = np.logspace(5, 8, 5)
        assert np.all(dielectronic_recombination_rate(8, 8, t) == 0.0)

    def test_dielectronic_nonzero_with_core(self):
        t = np.array([1e7])
        assert dielectronic_recombination_rate(8, 7, t)[0] >= 0.0
        assert dielectronic_recombination_rate(26, 20, t)[0] > 0.0

    def test_dielectronic_peaks_at_intermediate_temperature(self):
        t = np.logspace(4, 9, 200)
        a_d = dielectronic_recombination_rate(26, 20, t)
        peak = np.argmax(a_d)
        assert 0 < peak < len(t) - 1

    def test_total_is_sum(self):
        t = np.logspace(5, 8, 7)
        total = recombination_rate(26, 20, t)
        parts = radiative_recombination_rate(26, 20, t) + dielectronic_recombination_rate(26, 20, t)
        assert np.allclose(total, parts)

    @pytest.mark.parametrize("charge", [0, 9])
    def test_invalid_recombining_charge(self, charge):
        with pytest.raises(ValueError):
            recombination_rate(8, charge, np.array([1e6]))

    def test_magnitudes_physical(self):
        """Rate coefficients should sit in the 1e-16..1e-7 cm^3/s decades."""
        t = np.array([1e6])
        for z, c in [(8, 5), (26, 13)]:
            a = recombination_rate(z, c, t)[0]
            s = ionization_rate(z, c - 1, t)[0]
            assert 1e-18 < a < 1e-7
            assert 0.0 <= s < 1e-6


class TestLadderRates:
    """One vectorized pass over an element's charge states: the same
    bits as the per-charge functions (the CIE balance, and through it
    ``execute_many``'s batch invariance, depends on them)."""

    @pytest.mark.parametrize("z", [1, 2, 8, 14, 26, 31])
    def test_bit_identical_to_the_per_charge_functions(self, z):
        for temperature_k in np.geomspace(1.0e4, 1.0e9, 16):
            t = np.array([temperature_k])
            s, alpha = ladder_rates(z, float(temperature_k))
            assert s.shape == alpha.shape == (z,)
            for c in range(z):
                assert s[c] == ionization_rate(z, c, t)[0]
                assert alpha[c] == recombination_rate(z, c + 1, t)[0]

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            ladder_rates(8, 0.0)
