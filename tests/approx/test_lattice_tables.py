"""Kept interval tables: never stale, derived once, counted in bytes.

A :class:`SpectrumLattice` keeps each interval's interpolation table
from the moment the interval is certified; ``refine`` replaces the
intervals whose stencil changed and nothing else invalidates.  The
property below is that statement without an example: after any refine
sequence, the kept tables answer exactly what a stateless
``interpolate_loglog`` over **all** nodes answers.  The counting tests
are the performance claim without a clock: hits derive nothing and
locate once.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.approx.interp as interp
from repro.approx import INTERP_METHODS, LatticeSpec, LatticeStore, SpectrumLattice
from repro.approx.interp import interpolate_loglog
from repro.approx.lattice import NODE_OVERHEAD_BYTES
from repro.service.requests import SpectrumRequest
# Bins exactly zero below a temperature that moves with the bin, so
# low-temperature stencils mix the log and raw-flux transforms.
from tests.approx.test_lattice_golden import _edged_exact


def _lattice(method: str) -> SpectrumLattice:
    return SpectrumLattice(
        LatticeSpec(1.0e6, 5.0e7, n_nodes=9, method=method), _edged_exact
    )


def _assert_tables_current(lat: SpectrumLattice) -> None:
    method = lat.spec.method
    u_all, v_all = np.asarray(lat._u), np.asarray(lat._values)
    temps = np.exp(lat._u)
    probes = np.concatenate(
        [temps, temps[1:] * (1 - 1e-12), np.sqrt(temps[:-1] * temps[1:])]
    )
    for t in probes:
        t = float(t)
        whole = interpolate_loglog(u_all, v_all, math.log(t), method=method)
        np.testing.assert_array_equal(lat.interpolate(t), whole)
        iv = lat._intervals[lat.locate(t)]
        np.testing.assert_array_equal(
            lat.error_bound(t), lat._cert_scale * iv.abs_err
        )
    assert lat.nbytes == (
        sum(v.nbytes for v in lat._values)
        + sum(iv.nbytes for iv in lat._intervals)
        + lat.n_nodes * NODE_OVERHEAD_BYTES
    )


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(INTERP_METHODS),
    # Each draw is a position along the lattice as it then stands; 0 and
    # 1 are its edge intervals.
    refines=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=6
    ),
)
def test_tables_are_never_stale(method, refines):
    lat = _lattice(method)
    _assert_tables_current(lat)
    for where in refines:
        lat.refine(round(where * (lat.n_intervals - 1)))
        _assert_tables_current(lat)


class _Counter:
    """Wraps a callable, counting its calls."""

    def __init__(self, fn) -> None:
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class _CountedNumpy:
    """``interp``'s view of numpy with ``log`` counted."""

    def __init__(self) -> None:
        self.log = _Counter(np.log)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def counted(monkeypatch):
    slopes = _Counter(interp._hermite_slopes)
    numpy = _CountedNumpy()
    locate = _Counter(SpectrumLattice.locate_u)
    monkeypatch.setattr(interp, "_hermite_slopes", slopes)
    monkeypatch.setattr(interp, "np", numpy)
    monkeypatch.setattr(
        SpectrumLattice, "locate_u", lambda self, u: locate(self, u)
    )
    return slopes, numpy.log, locate


class _StubEvaluator:
    def fingerprint(self, request) -> str:
        return request.family_key[:8]

    def exact_fn(self, request):
        return _edged_exact


def _store(method: str = "cubic") -> LatticeStore:
    return LatticeStore(
        evaluator=_StubEvaluator(),
        spec=LatticeSpec(1.0e6, 5.0e7, n_nodes=9, method=method),
    )


def _request(temperature_k: float, accuracy: float = 1.0) -> SpectrumRequest:
    return SpectrumRequest(temperature_k=temperature_k, accuracy=accuracy)


class TestHitsDeriveNothing:
    def test_tables_are_derived_at_certification_only(self, counted):
        slopes, log, _ = counted
        lat = _lattice("cubic")
        # One derivation per interval: a log of its stencil, and slopes
        # in each transform its bins use (two where the zero edge cuts
        # through the stencil, one elsewhere).
        assert log.calls == lat.n_intervals
        assert lat.n_intervals <= slopes.calls <= 2 * lat.n_intervals
        derived = slopes.calls, log.calls
        temps = np.exp(lat._u)
        for t in np.geomspace(temps[2] * 1.001, temps[3] * 0.999, 50):
            lat.interpolate(float(t))
            lat.error_bound(float(t))
        assert (slopes.calls, log.calls) == derived
        # A refine re-derives the two children and the two neighbours
        # whose stencil gained the node — four interval generations.
        lat.refine(2)
        assert log.calls == derived[1] + 4
        assert slopes.calls <= derived[0] + 2 * 4

    def test_linear_tables_need_no_slopes(self, counted):
        slopes, log, _ = counted
        lat = _lattice("linear")
        lat.refine(2)
        assert slopes.calls == 0
        assert log.calls == (lat.n_intervals - 1) + 2

    def test_serve_locates_once_and_derives_nothing(self, counted):
        slopes, log, locate = counted
        store = _store()
        store.serve(_request(4.0e6))  # builds the family lattice
        derived = slopes.calls, log.calls
        lat = store.lattice(_request(4.0e6).family_key)
        temps = np.exp(lat._u)
        hits = [float(t) for t in np.geomspace(temps[4] * 1.001, temps[5] * 0.999, 40)]
        locate.calls = 0
        for t in hits:
            assert store.serve(_request(t)).status == "hit"
        assert locate.calls == len(hits)
        assert (slopes.calls, log.calls) == derived

    def test_refining_serve_relocates_once_per_bisection(self, counted):
        _, _, locate = counted
        store = _store()
        store.serve(_request(4.0e6))
        locate.calls = 0
        result = store.serve(_request(4.1e6, accuracy=1.0e-15))
        assert result.refinements == store.refine_max
        assert locate.calls == 1 + result.refinements

    def test_abs_bound_is_shared_and_read_only(self):
        store = _store()
        a = store.serve(_request(4.0e6))
        b = store.serve(_request(4.1e6))
        assert a.abs_bound is b.abs_bound
        assert not a.abs_bound.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.abs_bound[0] = 0.0
        assert a.values is not b.values and a.values.flags.writeable


class TestByteAccounting:
    @pytest.mark.parametrize("method", INTERP_METHODS)
    def test_tables_are_counted(self, method):
        lat = _lattice(method)
        assert any(iv.table.logged and iv.table.raw for iv in lat._intervals)
        row = lat._values[0].nbytes
        rows = 4 if method == "cubic" else 2
        for iv in lat._intervals:
            # The two transforms partition the bins: together one full
            # row per table entry, plus the mask that splits them.
            assert iv.table.nbytes == rows * row + iv.table.log_ok.nbytes
            # midpoint spectrum, abs_err, scaled bound, table
            assert iv.nbytes == 3 * row + iv.table.nbytes

    def test_table_rows_own_their_memory(self):
        lat = _lattice("cubic")
        for iv in lat._intervals:
            for block in iv.table.logged + iv.table.raw:
                assert block.base is None
