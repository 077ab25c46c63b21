"""The NEI rate matrix and system (Eq. 4)."""

import numpy as np
import pytest

from repro.nei.odes import NEISystem, nei_matrix


class TestNEIMatrix:
    def test_shape(self):
        a = nei_matrix(8, 1e6, 1.0)
        assert a.shape == (9, 9)

    def test_columns_sum_to_zero(self):
        """Particle conservation: d/dt sum(n) = 0 exactly."""
        for z, t in [(1, 1e5), (8, 1e6), (26, 1e7)]:
            a = nei_matrix(z, t, 1e9)
            assert np.allclose(a.sum(axis=0), 0.0, atol=1e-12 * np.abs(a).max())

    def test_tridiagonal(self):
        a = nei_matrix(8, 1e6, 1.0)
        for i in range(9):
            for j in range(9):
                if abs(i - j) > 1:
                    assert a[i, j] == 0.0

    def test_off_diagonals_nonnegative(self):
        a = nei_matrix(26, 1e7, 1.0)
        assert np.all(a[np.eye(27, dtype=bool) == False] >= -0.0)  # noqa: E712

    def test_scales_linearly_with_ne(self):
        a1 = nei_matrix(8, 1e6, 1.0)
        a2 = nei_matrix(8, 1e6, 5.0)
        assert np.allclose(a2, 5.0 * a1)

    def test_eigenvalues_nonpositive_real_parts(self):
        """A rate matrix generates a contraction: Re(lambda) <= 0."""
        a = nei_matrix(8, 1e6, 1e9)
        eigs = np.linalg.eigvals(a)
        assert np.all(eigs.real <= 1e-9 * np.abs(eigs.real).max())

    @pytest.mark.parametrize("args", [(0, 1e6, 1.0), (8, 0.0, 1.0), (8, 1e6, -1.0)])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            nei_matrix(*args)


class TestNEISystem:
    def test_rhs_is_matrix_product(self):
        sys_ = NEISystem(z=8, ne_cm3=1e9, temperature_k=1e6)
        y = np.linspace(0.1, 1.0, 9)
        assert np.allclose(sys_.rhs(0.0, y), sys_.matrix() @ y)

    def test_jacobian_equals_matrix(self):
        sys_ = NEISystem(z=8, ne_cm3=1e9, temperature_k=1e6)
        y = np.ones(9)
        assert np.array_equal(sys_.jacobian(0.0, y), sys_.matrix(0.0))

    def test_matrix_cached_at_constant_temperature(self):
        sys_ = NEISystem(z=8, ne_cm3=1e9, temperature_k=1e6)
        sys_.matrix(0.0)
        sys_.matrix(5.0)
        assert sys_.n_matrix_builds == 1

    def test_time_varying_temperature_rebuilds(self):
        sys_ = NEISystem(
            z=8,
            ne_cm3=1e9,
            temperature_k=1e6,
            temperature_profile=lambda t: 1e6 * (1.0 + t),
        )
        sys_.matrix(0.0)
        sys_.matrix(1.0)
        assert sys_.n_matrix_builds == 2

    def test_bad_temperature_profile_rejected(self):
        sys_ = NEISystem(
            z=8, ne_cm3=1e9, temperature_k=1e6, temperature_profile=lambda t: -1.0
        )
        with pytest.raises(ValueError):
            sys_.matrix(0.0)

    def test_conservation_defect(self):
        sys_ = NEISystem(z=8, ne_cm3=1e9, temperature_k=1e6)
        assert sys_.conservation_defect(np.full(9, 1.0 / 9.0)) == pytest.approx(0.0)
        assert sys_.conservation_defect(np.zeros(9)) == pytest.approx(1.0)

    def test_stiffness_ratio_large(self):
        """The rates span decades -> the system is genuinely stiff."""
        sys_ = NEISystem(z=26, ne_cm3=1e9, temperature_k=1e7)
        assert sys_.stiffness_ratio() > 1e3

    def test_dim(self):
        assert NEISystem(z=26, ne_cm3=1.0, temperature_k=1e7).matrix().shape == (27, 27)
