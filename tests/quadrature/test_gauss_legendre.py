"""Gauss-Legendre fixed rules."""

import numpy as np
import pytest

from repro.quadrature.batch import linear_rule
from repro.quadrature.gauss_legendre import gauss_legendre, gauss_legendre_nodes


class TestNodes:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_weights_sum_to_two(self, n):
        _x, w = gauss_legendre_nodes(n)
        assert w.sum() == pytest.approx(2.0)

    def test_nodes_symmetric_in_open_interval(self):
        x, _w = gauss_legendre_nodes(7)
        assert np.allclose(x, -x[::-1])
        assert np.all(np.abs(x) < 1.0)

    def test_cached(self):
        assert gauss_legendre_nodes(8)[0] is gauss_legendre_nodes(8)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_legendre_nodes(0)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_exact_to_degree_2n_minus_1(self, n):
        degree = 2 * n - 1
        f = lambda x: x**degree + x ** (degree - 1)
        a, b = -0.5, 1.5
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1) + (
            b**degree - a**degree
        ) / degree
        res = gauss_legendre(f, a, b, n)
        assert res.value == pytest.approx(exact, rel=1e-12)

    def test_not_exact_beyond(self):
        # degree 4 with n=2 (exact only to 3).
        res = gauss_legendre(lambda x: x**4, 0.0, 1.0, n=2)
        assert res.value != pytest.approx(0.2, rel=1e-10)

    def test_smooth_accuracy_with_few_points(self):
        res = gauss_legendre(np.exp, 0.0, 1.0, n=8)
        assert res.value == pytest.approx(np.e - 1.0, rel=1e-13)
        assert res.neval == 12  # 8 + embedded 4

    def test_zero_width(self):
        assert gauss_legendre(np.exp, 1.0, 1.0).value == 0.0

    def test_error_estimate_covers(self):
        f = lambda x: np.cos(7.0 * x)
        exact = np.sin(14.0) / 7.0
        res = gauss_legendre(f, 0.0, 2.0, n=8)
        assert abs(res.value - exact) <= max(res.abserr * 2.0, 1e-12)

    def test_bad_integrand_shape(self):
        with pytest.raises(ValueError):
            gauss_legendre(lambda x: np.zeros(3), 0.0, 1.0, n=8)


class TestBatchGaussLegendre:
    def test_matches_scalar(self):
        """The plan's batch Gauss rule (``linear_rule("gauss", n)``) is
        the scalar n-point rule, bin by bin."""
        f = lambda x: np.exp(-x) * (x + 1.0)
        lo = np.array([0.0, 0.7, 1.4])
        hi = np.array([0.7, 1.4, 3.0])
        frac, w, norm = linear_rule("gauss", 10)
        for i in range(3):
            width = hi[i] - lo[i]
            batch = width / norm * f(lo[i] + width * frac) @ w
            scalar = gauss_legendre(f, float(lo[i]), float(hi[i]), n=10)
            assert batch == pytest.approx(scalar.value, rel=1e-13)
