"""Composite Simpson rule: exactness, convergence, validation."""

import numpy as np
import pytest

from repro.quadrature.result import IntegrationResult
from repro.quadrature.simpson import DEFAULT_PIECES, simpson


class TestSimpsonExactness:
    """Simpson is exact on polynomials of degree <= 3."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_exact_on_cubics(self, degree):
        coeffs = np.arange(1.0, degree + 2.0)

        def f(x):
            return sum(c * x**p for p, c in enumerate(coeffs))

        a, b = -1.3, 2.7
        exact = sum(
            c * (b ** (p + 1) - a ** (p + 1)) / (p + 1)
            for p, c in enumerate(coeffs)
        )
        res = simpson(f, a, b, pieces=2)
        assert res.value == pytest.approx(exact, rel=1e-13)

    def test_not_exact_on_quartic(self):
        res = simpson(lambda x: x**4, 0.0, 1.0, pieces=2)
        assert res.value != pytest.approx(0.2, rel=1e-12)
        assert res.value == pytest.approx(0.2, rel=5e-2)

    def test_constant_function(self):
        res = simpson(lambda x: np.full_like(x, 3.5), 0.0, 2.0, pieces=4)
        assert res.value == pytest.approx(7.0)


class TestSimpsonConvergence:
    def test_fourth_order_convergence(self):
        """Halving h must reduce the error by ~16x on smooth integrands."""
        f = np.exp
        exact = np.e - 1.0
        err_coarse = abs(simpson(f, 0.0, 1.0, pieces=8).value - exact)
        err_fine = abs(simpson(f, 0.0, 1.0, pieces=16).value - exact)
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.1)

    def test_default_64_pieces_accuracy(self):
        """The paper's 64-piece default is 'enough accuracy' on RRC-like shapes."""
        f = lambda x: np.exp(-x) * x
        exact = 1.0 - 2.0 * np.exp(-1.0)
        res = simpson(f, 0.0, 1.0)
        assert res.neval == DEFAULT_PIECES + 1
        assert res.value == pytest.approx(exact, rel=1e-8)

    def test_error_estimate_bounds_true_error(self):
        f = np.sin
        exact = 1.0 - np.cos(2.0)
        res = simpson(f, 0.0, 2.0, pieces=32)
        assert abs(res.value - exact) <= 10.0 * res.abserr + 1e-15


class TestSimpsonEdgeCases:
    def test_zero_width_interval(self):
        res = simpson(np.exp, 1.0, 1.0)
        assert res.value == 0.0
        assert res.neval == 0

    def test_reversed_interval_flips_sign(self):
        fwd = simpson(np.exp, 0.0, 1.0).value
        rev = simpson(np.exp, 1.0, 0.0).value
        assert rev == pytest.approx(-fwd)

    @pytest.mark.parametrize("pieces", [0, -2, 3, 7])
    def test_invalid_pieces_rejected(self, pieces):
        with pytest.raises(ValueError):
            simpson(np.exp, 0.0, 1.0, pieces=pieces)

    def test_non_integer_pieces_rejected(self):
        with pytest.raises(TypeError):
            simpson(np.exp, 0.0, 1.0, pieces=2.0)

    def test_bad_integrand_shape_rejected(self):
        with pytest.raises(ValueError):
            simpson(lambda x: np.zeros(3), 0.0, 1.0, pieces=8)

    def test_returns_integration_result(self):
        res = simpson(np.exp, 0.0, 1.0)
        assert isinstance(res, IntegrationResult)
        assert res.converged
