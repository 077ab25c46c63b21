"""The shared Simpson RRC kernel (:mod:`repro.physics.rrc_kernel`).

Pinned promises:

1. Row ``j`` of ``SpectrumPlan.execute_many`` is bit-identical to
   ``execute(points[j])`` for any batch composition and order — wide and
   narrow pruned windows mixed, duplicates, batches wider than the
   kernel's temperature block, and temperatures so low that factoring
   ``exp(-(E - I)/kT)`` about 0 would overflow.
2. The factorized kernel agrees with the generic unfactored megabatch at
   every such temperature.
3. Dense Simpson-64 stays within 1e-9 (peak-relative) of the scalar QAGS
   oracle over the sweeps' temperature range, with and without the Gaunt
   factor (Fig. 8, gated).
4. One 400-bin dense spectrum allocates no megabyte temporaries.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.bench.workloads import small_real_database, small_real_grid
from repro.physics.apec import GridPoint, SerialAPEC
from repro.physics.plan import PlanCache, SpectrumPlan
from repro.physics.rrc import window_integrand
from repro.physics.spectrum import EnergyGrid
from repro.quadrature.megabatch import megabatch_simpson_windows


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


def _plan(db, **kw) -> SpectrumPlan:
    # A wide grid, so the 1e-9 tail budget cuts windows differently at
    # different temperatures (on Fig. 7's window it prunes nothing).
    knobs = dict(method="simpson", pieces=16, tail_tol=1.0e-9)
    knobs.update(kw)
    return PlanCache().get(db, EnergyGrid.linear(0.05, 8.0, 60), **knobs)


def _point(temperature_k: float) -> GridPoint:
    return GridPoint(temperature_k=temperature_k, ne_cm3=1.0)


#: 1e4-1e5 K is where the former ``exp(I/kT) * exp(-E/kT)`` split
#: overflowed and fell back to the generic kernel.
temperatures = st.floats(min_value=4.0, max_value=8.0).map(lambda e: 10.0**e)


class TestBatchInvariance:
    @pytest.fixture(scope="class", params=[1.0e-9, 0.0], ids=["pruned", "dense"])
    def plan(self, db, request) -> SpectrumPlan:
        return _plan(db, tail_tol=request.param)

    @given(temps=st.lists(temperatures, min_size=1, max_size=11))
    @settings(max_examples=25, deadline=None)
    def test_rows_bit_identical_to_execute(self, plan, temps):
        points = [_point(t) for t in temps]
        many = plan.execute_many(points)
        assert len(many) == len(points)
        for point, row in zip(points, many):
            single = plan.execute(point)
            np.testing.assert_array_equal(row.values, single.values)
            assert (row.n_pairs, row.n_passes) == (single.n_pairs, single.n_passes)

    def test_windows_differ_across_the_range(self, db):
        plan = _plan(db)
        cold = plan.windows(_point(1.0e5).kt_kev)[1]
        hot = plan.windows(_point(5.0e7).kt_kev)[1]
        assert (cold < hot).any()

    def test_order_does_not_change_rows(self, db):
        plan = _plan(db)
        points = [_point(t) for t in (3.0e4, 2.0e6, 1.0e7, 8.0e7)]
        forward = plan.execute_many(points)
        backward = plan.execute_many(points[::-1])[::-1]
        for a, b in zip(forward, backward):
            np.testing.assert_array_equal(a.values, b.values)


class TestAgainstGenericKernel:
    @pytest.mark.parametrize("gaunt", [True, False])
    @pytest.mark.parametrize("temperature_k", [2.0e4, 3.0e5, 2.0e6, 5.0e7])
    def test_matches_unfactored_megabatch(self, db, gaunt, temperature_k):
        plan = _plan(db, gaunt=gaunt)
        point = _point(temperature_k)
        first, cutoff = plan.windows(point.kt_kev)
        generic = megabatch_simpson_windows(
            window_integrand(
                plan.energy_kev, plan.flat_constants(point), point.kt_kev, gaunt
            ),
            plan.grid.edges, first, cutoff,
            lower_clip=plan.energy_kev, pieces=plan.key.pieces,
        )
        fast = plan.execute(point)
        assert fast.n_pairs == generic.n_pairs + generic.n_pairs_skipped
        assert np.all(np.isfinite(fast.values))
        scale = float(np.abs(generic.values).max())
        assert np.abs(fast.values - generic.values).max() <= 1.0e-12 * scale

    def test_pieces_beyond_the_scratch_rejected(self, db):
        plan = _plan(db, pieces=1 << 16)
        with pytest.raises(ValueError, match="pieces"):
            plan.execute(_point(1.0e7))


class TestAgainstQagsOracle:
    @pytest.mark.parametrize("gaunt", [True, False])
    @pytest.mark.parametrize("temperature_k", [2.0e6, 1.0e7, 5.0e7])
    def test_dense_simpson_within_1e9(self, gaunt, temperature_k):
        db = small_real_database()
        grid = small_real_grid(48)
        ions = [ion for ion in db.ions if db.n_levels(ion) > 0][::26]
        point = _point(temperature_k)
        got, want = (
            SerialAPEC(db, grid, method=method, gaunt=gaunt, components=("rrc",))
            .compute(point, ions=tuple(ions))
            .values
            for method in ("simpson-batch", "qags")
        )
        assert want.max() > 0.0
        assert np.abs(got - want).max() <= 1.0e-9 * want.max()


class TestNoMegabyteTemporaries:
    def test_dense_spectrum_traced_peak(self):
        db = small_real_database()
        grid = small_real_grid(400)
        model = SerialAPEC(db, grid, method="simpson-batch", components=("rrc",))
        model.compute(_point(1.0e7))  # node arrays and scratch exist from here on
        tracemalloc.start()
        try:
            model.compute(_point(1.1e7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One node-weight matrix for the new temperature (208 KB) plus
        # spectra and per-level vectors; the retired kernel's broadcast
        # chunk alone was 16 levels x 400 bins x 65 nodes = 3.3 MB.
        assert peak < 1 << 20
