"""Kramers photoionization and the Milne-relation recombination."""

import numpy as np
import pytest

from repro.atomic.cross_sections import kramers_photoionization, milne_recombination


class TestKramersPhotoionization:
    def test_zero_below_threshold(self):
        e = np.array([0.1, 0.49, 0.4999])
        sigma = kramers_photoionization(e, binding_kev=0.5, n=1, c_eff=8.0)
        assert np.all(sigma == 0.0)

    def test_positive_at_and_above_threshold(self):
        e = np.array([0.5, 0.6, 5.0])
        sigma = kramers_photoionization(e, binding_kev=0.5, n=1, c_eff=8.0)
        assert np.all(sigma > 0.0)

    def test_e_cubed_falloff(self):
        s1 = kramers_photoionization(np.array([1.0]), 0.5, 1, 8.0)[0]
        s2 = kramers_photoionization(np.array([2.0]), 0.5, 1, 8.0)[0]
        assert s1 / s2 == pytest.approx(8.0, rel=1e-12)

    def test_scales_linearly_with_n(self):
        s1 = kramers_photoionization(np.array([1.0]), 0.5, 1, 8.0)[0]
        s3 = kramers_photoionization(np.array([1.0]), 0.5, 3, 8.0)[0]
        assert s3 / s1 == pytest.approx(3.0)

    def test_scalar_input_supported(self):
        sigma = kramers_photoionization(1.0, 0.5, 1, 8.0)
        assert float(sigma) > 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(binding_kev=-0.5, n=1, c_eff=8.0),
            dict(binding_kev=0.5, n=0, c_eff=8.0),
            dict(binding_kev=0.5, n=1, c_eff=0.0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            kramers_photoionization(np.array([1.0]), **kwargs)


class TestMilneRecombination:
    def test_zero_at_nonpositive_electron_energy(self):
        sigma = milne_recombination(np.array([0.0, -1.0]), 0.5, 1, 8.0, 2.0)
        assert np.all(sigma == 0.0)

    def test_positive_above_zero(self):
        e = np.logspace(-3, 1, 20)
        sigma = milne_recombination(e, 0.5, 1, 8.0, 2.0)
        assert np.all(sigma > 0.0)

    def test_decreasing_with_electron_energy(self):
        """sigma_rec ~ 1/(E_e E_gamma): strictly decreasing."""
        e = np.logspace(-3, 1, 30)
        sigma = milne_recombination(e, 0.5, 1, 8.0, 2.0)
        assert np.all(np.diff(sigma) < 0.0)

    def test_statistical_weight_scaling(self):
        e = np.array([0.1])
        s_g2 = milne_recombination(e, 0.5, 1, 8.0, 2.0)[0]
        s_g6 = milne_recombination(e, 0.5, 1, 8.0, 6.0)[0]
        assert s_g6 / s_g2 == pytest.approx(3.0)

    def test_milne_product_identity(self):
        """E_e sigma_rec = g/(2 g_ion) E_g^2/(2 m_e c^2) sigma_ph exactly."""
        from repro.constants import ME_C2_KEV

        e_e = np.array([0.3])
        binding, n, c_eff, g = 0.5, 2, 7.0, 4.0
        e_g = e_e + binding
        lhs = e_e * milne_recombination(e_e, binding, n, c_eff, g)
        rhs = (
            (g / 2.0)
            * e_g**2
            / (2.0 * ME_C2_KEV)
            * kramers_photoionization(e_g, binding, n, c_eff)
        )
        assert lhs[0] == pytest.approx(rhs[0], rel=1e-12)

    def test_physical_magnitude(self):
        """Recombination cross sections should be far below Thomson-scale
        geometric areas x 1e6 — i.e. sane atomic-physics magnitudes."""
        sigma = milne_recombination(np.array([0.01]), 0.5, 1, 8.0, 2.0)[0]
        assert 1e-28 < sigma < 1e-16
