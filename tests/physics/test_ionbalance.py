"""CIE ionization equilibrium."""

import hashlib

import numpy as np
import pytest

from repro.atomic.ions import Ion
from repro.atomic.rates import ionization_rate, recombination_rate
from repro.physics.ionbalance import cie_fractions, ion_density, ion_fraction


class TestCIEFractions:
    @pytest.mark.parametrize("z", [1, 8, 26])
    @pytest.mark.parametrize("t", [1e4, 1e6, 1e8])
    def test_normalized_and_nonnegative(self, z, t):
        f = cie_fractions(z, t)
        assert f.shape == (z + 1,)
        assert np.all(f >= 0.0)
        assert f.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cold_plasma_neutral(self):
        f = cie_fractions(8, 1e3)
        assert f[0] > 0.99

    def test_hot_plasma_fully_stripped(self):
        f = cie_fractions(8, 1e9)
        assert f[-1] > 0.9

    def test_mean_charge_monotone_in_temperature(self):
        temps = np.logspace(4, 9, 12)
        mean_charge = [
            float(np.arange(9) @ cie_fractions(8, t)) for t in temps
        ]
        assert all(b >= a - 1e-9 for a, b in zip(mean_charge, mean_charge[1:]))

    def test_detailed_balance_holds(self):
        """f_c S_c = f_{c+1} alpha_{c+1} for every adjacent pair."""
        z, t = 8, 2e6
        f = cie_fractions(z, t)
        for c in range(z):
            s = float(ionization_rate(z, c, np.array([t]))[0])
            a = float(recombination_rate(z, c + 1, np.array([t]))[0])
            lhs, rhs = f[c] * s, f[c + 1] * a
            scale = max(lhs, rhs)
            if scale > 1e-30:
                assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("args", [(0, 1e6), (8, 0.0), (8, -5.0)])
    def test_invalid_inputs(self, args):
        with pytest.raises(ValueError):
            cie_fractions(*args)

    def test_caching_returns_copies(self):
        a = cie_fractions(8, 1e6)
        a[0] = 99.0
        b = cie_fractions(8, 1e6)
        assert b[0] != 99.0


def _per_charge_loop(z: int, temperature_k: float) -> np.ndarray:
    """``cie_fractions`` as commit caf6ad2 computed it: 2 Z one-element
    rate calls per element.  Kept as the reference of the vectorized
    ladder — the arithmetic is unchanged, so the bits must be."""
    log_ratio = np.empty(z)
    t = np.array([temperature_k])
    for c in range(z):
        s = float(ionization_rate(z, c, t)[0])
        a = float(recombination_rate(z, c + 1, t)[0])
        if s <= 0.0:
            log_ratio[c] = -np.inf
        elif a <= 0.0:
            log_ratio[c] = np.inf
        else:
            log_ratio[c] = np.log(s) - np.log(a)
    log_f = np.concatenate([[0.0], np.cumsum(log_ratio)])
    log_f -= log_f.max()
    f = np.exp(log_f)
    return f / f.sum()


class TestVectorizedLadderKeepsTheBits:
    """``execute_many`` rows are bit-identical to ``execute`` only while
    a grid point's ion fractions are the same bits on every path."""

    TEMPERATURES = np.geomspace(1.0e4, 1.0e9, 64)
    #: sha1 over ``cie_fractions(z, T)`` for z = 1..31 x the 64
    #: temperatures above, recorded at caf6ad2 before the ladder was
    #: vectorized (on a host whose NumPy dispatches AVX-512 loops).
    PARENT_DIGEST = "9ad8fbddd249a56644f0a39b7074c72e5040cb56"

    @pytest.fixture(scope="class")
    def pairs(self):
        """(vectorized, per-charge loop) for every (z, T) of the golden."""
        return [
            (cie_fractions(z, float(t)), _per_charge_loop(z, float(t)))
            for z in range(1, 32)
            for t in self.TEMPERATURES
        ]

    def test_array_equal_to_the_per_charge_loop(self, pairs):
        for got, want in pairs:
            np.testing.assert_array_equal(got, want)

    def test_matches_the_parent_commit(self, pairs):
        got, want = hashlib.sha1(), hashlib.sha1()
        for vectorized, loop in pairs:
            got.update(vectorized.tobytes())
            want.update(loop.tobytes())
        if want.hexdigest() != self.PARENT_DIGEST:
            pytest.skip("this host's exp/log/pow round unlike the recording host's")
        assert got.hexdigest() == self.PARENT_DIGEST


class TestIonDensity:
    def test_fraction_of_recombining_ion(self):
        ion = Ion(z=8, charge=8)
        f = cie_fractions(8, 1e7)
        assert ion_fraction(ion, 1e7) == pytest.approx(f[8])

    def test_density_scales_with_ne(self):
        ion = Ion(z=8, charge=8)
        d1 = ion_density(ion, 1e7, ne_cm3=1.0)
        d2 = ion_density(ion, 1e7, ne_cm3=10.0)
        assert d2 == pytest.approx(10.0 * d1)

    def test_density_includes_abundance(self):
        h = ion_density(Ion(z=1, charge=1), 1e7, 1.0)
        fe = ion_density(Ion(z=26, charge=26), 1e7, 1.0)
        assert h > fe  # iron is ~1e-4.4 of hydrogen

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            ion_density(Ion(z=8, charge=8), 1e7, -1.0)
