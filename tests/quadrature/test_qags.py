"""QAGS adaptive quadrature and the Wynn epsilon algorithm."""

import numpy as np
import pytest

from repro.quadrature.qags import qags, wynn_epsilon
from repro.quadrature.result import ErrorBudget


class TestWynnEpsilon:
    def test_geometric_series_exact(self):
        partial = np.cumsum(0.5 ** np.arange(8))
        limit, err = wynn_epsilon(partial)
        assert limit == pytest.approx(2.0, abs=1e-12)
        assert err <= 1e-10

    def test_alternating_series_acceleration(self):
        partial = np.cumsum((-1.0) ** np.arange(12) / np.arange(1, 13))
        limit, _err = wynn_epsilon(partial)
        raw_err = abs(partial[-1] - np.log(2.0))
        acc_err = abs(limit - np.log(2.0))
        assert acc_err < raw_err * 1e-4

    def test_monotone_series_improved(self):
        partial = np.cumsum(1.0 / np.arange(1, 20) ** 2)
        limit, _err = wynn_epsilon(partial)
        exact = np.pi**2 / 6.0
        assert abs(limit - exact) < abs(partial[-1] - exact)

    def test_constant_sequence(self):
        limit, err = wynn_epsilon(np.full(5, 3.25))
        assert limit == 3.25
        assert err == 0.0

    def test_too_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            wynn_epsilon(np.array([1.0, 2.0]))


class TestErrorBudget:
    def test_target_uses_max_of_abs_and_rel(self):
        budget = ErrorBudget(epsabs=1e-3, epsrel=1e-6)
        assert budget.target(1e6) == pytest.approx(1.0)
        assert budget.target(0.1) == pytest.approx(1e-3)

    def test_satisfied(self):
        budget = ErrorBudget(epsabs=1e-8, epsrel=1e-6)
        assert budget.satisfied(1.0, 1e-7)
        assert not budget.satisfied(1.0, 1e-5)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget(epsabs=0.0, epsrel=0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget(epsabs=-1.0)


class TestQAGS:
    def test_smooth_integrand(self):
        cases = [
            (np.exp, 0.0, 2.0, np.exp(2.0) - 1.0),
            # Closed form of the integral of ln(1 + x) / (1 + x^2) on [0, 1].
            (lambda x: np.log1p(x) / (1.0 + x**2), 0.0, 1.0, np.pi * np.log(2.0) / 8.0),
        ]
        for f, a, b, exact in cases:
            res = qags(f, a, b)
            assert res.converged
            assert res.value == pytest.approx(exact, rel=1e-12)
            assert abs(res.value - exact) <= max(res.abserr, 1e-14)

    def test_oscillatory_integrand(self):
        # [0, 1] (not [0, pi]): an interval where sin(50x) is NOT odd
        # about the midpoint, so the symmetric rule cannot luck into 0.
        res = qags(lambda x: np.sin(50.0 * x), 0.0, 1.0, epsrel=1e-10)
        exact = (1.0 - np.cos(50.0)) / 50.0
        assert res.converged
        assert res.value == pytest.approx(exact, abs=1e-10)
        assert res.subdivisions > 1  # must have adapted

    def test_kinked_integrand(self):
        res = qags(lambda x: np.abs(x), -1.0, 2.0, epsrel=1e-10)
        assert res.value == pytest.approx(2.5, rel=1e-10)

    def test_near_singular_log(self):
        f = lambda x: np.where(x > 0, np.log(np.maximum(x, 1e-300)), 0.0)
        res = qags(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=100)
        assert res.value == pytest.approx(-1.0, abs=1e-7)

    def test_rrc_like_edge(self):
        """The workload's actual shape: zero below an edge, exp above."""
        edge, kt = 0.7, 0.3
        f = lambda x: np.where(x >= edge, np.exp(-(x - edge) / kt), 0.0)
        res = qags(f, 0.5, 2.0, epsrel=1e-10)
        exact = kt * (1.0 - np.exp(-(2.0 - edge) / kt))
        assert res.value == pytest.approx(exact, rel=1e-8)

    def test_reversed_limits(self):
        fwd = qags(np.exp, 0.0, 1.0).value
        rev = qags(np.exp, 1.0, 0.0).value
        assert rev == pytest.approx(-fwd, rel=1e-14)

    def test_zero_width(self):
        res = qags(np.exp, 1.0, 1.0)
        assert res.value == 0.0
        assert res.neval == 0

    def test_limit_exhaustion_reported_not_hidden(self):
        """A hard integrand with a tiny limit must report non-convergence."""
        f = lambda x: np.sin(1.0 / np.maximum(np.abs(x), 1e-12))
        res = qags(f, 0.0, 1.0, epsrel=1e-14, epsabs=1e-14, limit=3)
        assert not res.converged

    def test_neval_accounting(self):
        res = qags(np.exp, 0.0, 1.0)
        assert res.neval % 21 == 0
