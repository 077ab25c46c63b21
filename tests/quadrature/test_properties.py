"""Property-based tests on the quadrature stack (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quadrature.batch import batch_romberg, batch_simpson, linear_rule
from repro.quadrature.qags import qags
from repro.quadrature.romberg import romberg
from repro.quadrature.simpson import simpson

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
small_pos = st.floats(min_value=0.05, max_value=10.0)


@st.composite
def cubic_coeffs(draw):
    return [draw(finite_floats) for _ in range(4)]


def poly(coeffs):
    def f(x):
        out = np.zeros_like(np.asarray(x, dtype=np.float64))
        for p, c in enumerate(coeffs):
            out = out + c * np.asarray(x, dtype=np.float64) ** p
        return out

    return f


def poly_integral(coeffs, a, b):
    return sum(c * (b ** (p + 1) - a ** (p + 1)) / (p + 1) for p, c in enumerate(coeffs))


class TestSimpsonProperties:
    @given(coeffs=cubic_coeffs(), a=finite_floats, width=small_pos)
    @settings(max_examples=60, deadline=None)
    def test_exact_on_random_cubics(self, coeffs, a, width):
        b = a + width
        exact = poly_integral(coeffs, a, b)
        got = simpson(poly(coeffs), a, b, pieces=4).value
        scale = max(1.0, abs(exact))
        assert abs(got - exact) <= 1e-9 * scale

    @given(a=finite_floats, width=small_pos, shift=finite_floats)
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_integrand(self, a, width, shift):
        """integral(f + c) = integral(f) + c * (b - a)."""
        b = a + width
        f = lambda x: np.sin(x)
        g = lambda x: np.sin(x) + shift
        i_f = simpson(f, a, b, pieces=16).value
        i_g = simpson(g, a, b, pieces=16).value
        assert i_g - i_f == pytest.approx(shift * width, rel=1e-9, abs=1e-9)

    @given(a=finite_floats, width=small_pos)
    @settings(max_examples=40, deadline=None)
    def test_interval_additivity(self, a, width):
        b = a + width
        mid = a + width / 2.0
        f = np.cos
        whole = simpson(f, a, b, pieces=64).value
        parts = simpson(f, a, mid, pieces=32).value + simpson(f, mid, b, pieces=32).value
        assert whole == pytest.approx(parts, rel=1e-8, abs=1e-10)


class TestRombergProperties:
    @given(coeffs=cubic_coeffs(), a=finite_floats, width=small_pos)
    @settings(max_examples=40, deadline=None)
    def test_exact_on_random_cubics(self, coeffs, a, width):
        b = a + width
        exact = poly_integral(coeffs, a, b)
        got = romberg(poly(coeffs), a, b, k=3).value
        scale = max(1.0, abs(exact))
        assert abs(got - exact) <= 1e-8 * scale

    @given(a=finite_floats, width=small_pos, k=st.integers(min_value=2, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_sign_flip_antisymmetry(self, a, width, k):
        b = a + width
        fwd = romberg(np.exp, a, b, k=k).value
        # integral over [a,b] of f == -integral over [b,a]; our API keeps
        # a <= b but trapezoid_ladder handles either orientation.
        rev = romberg(np.exp, b, a, k=k).value
        assert fwd == pytest.approx(-rev, rel=1e-12)


class TestBatchConsistencyProperties:
    @given(
        edges=st.lists(
            st.floats(min_value=0.1, max_value=20.0), min_size=3, max_size=12, unique=True
        ),
        pieces=st.sampled_from([2, 8, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_scalar_loop(self, edges, pieces):
        edges = np.array(sorted(edges))
        f = lambda x: np.exp(-0.3 * x) * (x + 1.0)
        batch = batch_simpson(f, edges[:-1], edges[1:], pieces=pieces)
        for i in range(len(edges) - 1):
            scalar = simpson(f, float(edges[i]), float(edges[i + 1]), pieces=pieces)
            assert batch[i] == pytest.approx(scalar.value, rel=1e-11, abs=1e-13)

    @given(
        lo=st.floats(min_value=0.0, max_value=5.0),
        width=small_pos,
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_romberg_single_matches_scalar(self, lo, width, k):
        hi = lo + width
        f = lambda x: 1.0 / (1.0 + x**2)
        batch = batch_romberg(f, np.array([lo]), np.array([hi]), k=k)[0]
        scalar = romberg(f, lo, hi, k=k).value
        assert batch == pytest.approx(scalar, rel=1e-11, abs=1e-14)


#: method -> (orders drawn, the degree the rule states for an order).
RULE_DEGREES = {
    "simpson": (st.integers(1, 64).map(lambda n: 2 * n), lambda pieces: 3),
    "romberg": (st.integers(0, 10), lambda k: 2 * k + 1),
    "gauss": (st.integers(1, 24), lambda n: 2 * n - 1),
}


class TestLinearRuleProperties:
    @given(data=st.data(), method=st.sampled_from(sorted(RULE_DEGREES)))
    @settings(max_examples=80, deadline=None)
    def test_weights_are_positive_normalized_and_exact_to_the_degree(self, data, method):
        """What the RRC kernel's "nothing cancels" bound rests on, and
        what makes a rule the rule it is called: positive weights summing
        to 1 over [0, 1] that integrate ``x^d`` to ``1 / (d + 1)`` up to
        the stated degree — and, where one rounding can show it, not
        beyond."""
        orders, degree_of = RULE_DEGREES[method]
        order = data.draw(orders)
        frac, weights, norm = linear_rule(method, order)
        w = weights / norm
        assert frac.shape == w.shape and np.all(np.diff(frac) > 0.0)
        assert 0.0 <= frac[0] and frac[-1] <= 1.0
        assert np.all(w > 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        degree = min(degree_of(order), 40)
        for d in range(degree + 1):
            assert w @ frac**d == pytest.approx(1.0 / (d + 1), abs=1e-13)
        if frac.size <= 5:
            assert abs(w @ frac ** (degree + 1) - 1.0 / (degree + 2)) > 1e-7

    @pytest.mark.parametrize("pieces", [0, -2, 3])
    def test_bad_simpson_pieces_are_refused_by_name(self, pieces):
        with pytest.raises(ValueError, match="pieces"):
            linear_rule("simpson", pieces)

    def test_unknown_rules_are_refused(self):
        for method, order in (("midpoint", 4), ("romberg", -1), ("simpson", 3), ("gauss", 0)):
            with pytest.raises(ValueError):
                linear_rule(method, order)


class TestQAGSProperties:
    @given(coeffs=cubic_coeffs(), a=finite_floats, width=small_pos)
    @settings(max_examples=30, deadline=None)
    def test_converges_on_random_cubics(self, coeffs, a, width):
        b = a + width
        exact = poly_integral(coeffs, a, b)
        res = qags(poly(coeffs), a, b)
        assert res.converged
        scale = max(1.0, abs(exact))
        assert abs(res.value - exact) <= max(res.abserr * 10, 1e-8 * scale)

    @given(edge=st.floats(min_value=0.3, max_value=1.5), kt=st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_rrc_family_has_analytic_value(self, edge, kt):
        """The workload family integrates exactly; QAGS must match."""
        f = lambda x: np.where(x >= edge, np.exp(-(x - edge) / kt), 0.0)
        lo = max(0.1, edge)
        res = qags(f, lo, 3.0, epsrel=1e-10)
        exact = kt * (1.0 - np.exp(-(3.0 - edge) / kt)) if edge < 3.0 else 0.0
        assert res.value == pytest.approx(exact, rel=1e-7, abs=1e-12)
