"""The lattice: spec validity, measured certificates, refinement."""

import math

import numpy as np
import pytest

from repro.approx import (
    INTERP_METHODS,
    LatticeSpec,
    SpectrumLattice,
    peak_rel_error,
    plan_exact_fn,
)

_E_KEV = np.linspace(0.3, 1.5, 24)
_K_B_KEV = 8.617333262e-8


def _synthetic_exact(temperature_k: float) -> np.ndarray:
    """A cheap spectrum-shaped function, smooth in ln T."""
    kt = _K_B_KEV * temperature_k
    return np.exp(-_E_KEV / kt) / np.sqrt(kt)


def _spec(**kw) -> LatticeSpec:
    base = dict(t_min_k=1.0e6, t_max_k=5.0e7, n_nodes=9, method="linear")
    base.update(kw)
    return LatticeSpec(**base)


class TestLatticeSpec:
    def test_bad_domain(self):
        with pytest.raises(ValueError, match="t_min_k < t_max_k"):
            LatticeSpec(t_min_k=2.0, t_max_k=1.0)

    def test_bad_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            _spec(method="spline")

    def test_bad_safety(self):
        with pytest.raises(ValueError, match="safety"):
            _spec(safety=0.5)

    def test_density_guard_rejects_coarse_lattices(self):
        # The midpoint certificate is only sound below ~1 e-fold per
        # interval; the spec enforces 0.75 as a validity envelope.
        with pytest.raises(ValueError, match="too coarse"):
            LatticeSpec(t_min_k=5.0e5, t_max_k=1.0e8, n_nodes=5)

    def test_density_guard_accepts_dense_lattices(self):
        LatticeSpec(t_min_k=5.0e5, t_max_k=1.0e8, n_nodes=17)


class TestBuild:
    def test_build_evaluates_nodes_and_midpoints(self):
        lat = SpectrumLattice(_spec(), _synthetic_exact)
        assert lat.n_nodes == 9
        assert lat.n_intervals == 8
        # n nodes + (n-1) midpoint certificates.
        assert lat.node_evals == 2 * 9 - 1

    def test_locate(self):
        lat = SpectrumLattice(_spec(), _synthetic_exact)
        assert lat.locate(5.0e5) is None
        assert lat.locate(1.0e8) is None
        assert lat.locate(-1.0) is None
        assert lat.locate(1.0e6) == 0
        assert lat.locate(5.0e7) == lat.n_intervals - 1
        i = lat.locate(7.0e6)
        temps = np.exp(lat._u)
        assert temps[i] <= 7.0e6 <= temps[i + 1]

    def test_error_bound_outside_domain_raises(self):
        lat = SpectrumLattice(_spec(), _synthetic_exact)
        with pytest.raises(ValueError, match="outside the lattice domain"):
            lat.error_bound(1.0e9)

    @pytest.mark.parametrize("method", INTERP_METHODS)
    def test_interpolate_reads_only_its_stencil(self, method):
        # The hit path stacks the <= 4 stencil nodes, never the lattice;
        # bit for bit what interpolating over every node gives — at the
        # domain's ends, on nodes, next to them and after a refinement.
        from repro.approx.interp import interpolate_loglog

        lat = SpectrumLattice(_spec(method=method), _synthetic_exact)
        lat.refine(3)
        temps = np.exp(lat._u)
        probes = np.concatenate(
            [temps, np.sqrt(temps[:-1] * temps[1:]), temps[1:] * (1 - 1e-12)]
        )
        for t in probes:
            whole = interpolate_loglog(
                np.asarray(lat._u), np.asarray(lat._values),
                math.log(float(t)), method=method,
            )
            np.testing.assert_array_equal(lat.interpolate(float(t)), whole)
        with pytest.raises(ValueError, match="outside the lattice domain"):
            lat.interpolate(1.0e9)

    def test_fingerprint_is_stored(self):
        lat = SpectrumLattice(_spec(), _synthetic_exact, fingerprint="abc")
        assert lat.fingerprint == "abc"


class TestCertificates:
    @pytest.mark.parametrize("method", INTERP_METHODS)
    def test_held_out_errors_within_certificates(self, method):
        lat = SpectrumLattice(_spec(method=method), _synthetic_exact)
        rng = np.random.default_rng(17)
        temps = np.exp(rng.uniform(np.log(1.0e6), np.log(5.0e7), size=40))
        for t in temps:
            t = float(t)
            exact = _synthetic_exact(t)
            approx = lat.interpolate(t)
            i = lat.locate(t)
            assert peak_rel_error(approx, exact) <= lat.certified_error(i)
            assert np.all(np.abs(approx - exact) <= lat.error_bound(t))


class TestRefinement:
    @pytest.mark.parametrize("method", INTERP_METHODS)
    def test_refine_promotes_midpoint_and_tightens(self, method):
        lat = SpectrumLattice(_spec(method=method), _synthetic_exact)
        worst = max(range(lat.n_intervals), key=lat.certified_error)
        before = lat.certified_error(worst)
        evals_before = lat.node_evals
        lat.refine(worst)
        assert lat.n_nodes == 10
        assert lat.n_intervals == 9
        # The midpoint spectrum was already stored: only the two child
        # certificates cost exact evaluations.
        assert lat.node_evals == evals_before + 2
        children = max(lat.certified_error(worst), lat.certified_error(worst + 1))
        assert children < before

    def test_refine_at_domain_edges(self):
        lat = SpectrumLattice(_spec(method="cubic"), _synthetic_exact)
        lat.refine(0)
        lat.refine(lat.n_intervals - 1)
        assert lat.n_intervals == 10

    def test_refine_respects_max_nodes(self):
        lat = SpectrumLattice(_spec(n_nodes=9, max_nodes=9), _synthetic_exact)
        with pytest.raises(ValueError, match="max_nodes"):
            lat.refine(0)

    def test_refined_certificates_still_hold(self):
        lat = SpectrumLattice(_spec(method="cubic"), _synthetic_exact)
        for _ in range(4):
            lat.refine(max(range(lat.n_intervals), key=lat.certified_error))
        rng = np.random.default_rng(5)
        for t in np.exp(rng.uniform(np.log(1.0e6), np.log(5.0e7), size=20)):
            t = float(t)
            err = peak_rel_error(lat.interpolate(t), _synthetic_exact(t))
            assert err <= lat.certified_error(lat.locate(t))


class TestPlanBackedBudget:
    """The satellite property sweep: held-out error <= declared budget.

    Lattice nodes come through the shared plan cache (one compilation
    per (method, tail_tol) combination); temperatures never seen by the
    lattice are then served and re-verified against the same exact path.
    """

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0e-3])
    @pytest.mark.parametrize("method", INTERP_METHODS)
    def test_held_out_within_declared_budget(self, method, tail_tol):
        from repro.bench.workloads import small_real_database, small_real_grid

        budget = 1.0e-3
        db = small_real_database()
        grid = small_real_grid(n_bins=60)
        exact_fn = plan_exact_fn(db, grid, tail_tol=tail_tol)
        lat = SpectrumLattice(
            LatticeSpec(2.0e6, 2.0e7, n_nodes=9, method=method), exact_fn
        )
        rng = np.random.default_rng(42)
        temps = np.exp(rng.uniform(np.log(2.0e6), np.log(2.0e7), size=5))
        for t in temps:
            t = float(t)
            i = lat.locate(t)
            refined = 0
            while lat.certified_error(i) > budget and refined < 6:
                lat.refine(i)
                i = lat.locate(t)
                refined += 1
            assert lat.certified_error(i) <= budget
            err = peak_rel_error(lat.interpolate(t), exact_fn(t))
            assert err <= budget
