"""Compiled spectrum plans and the cross-request plan cache.

Pinned promises:

1. A plan's fused windows and per-ion active counts match the per-ion
   :func:`repro.physics.windows.level_windows` search exactly.
2. A fused execution matches the generic window kernels of
   :mod:`repro.quadrature.megabatch` within 1e-12 relative for every
   rule, and the in-order per-ion sum (a summation-order check: it runs
   the same kernel) on seeded (temperature, method) combinations.
3. The cache is content-addressed: identical inputs hit, every key knob
   (grid, method, the method's own order, tail tolerance, Gaunt flag)
   misses, an order another method reads does not, and a temperature
   change never recompiles (plans are T-independent).
4. ``execute_many`` over the rank pool returns, for any points and any
   number of slices — of the points, or of the bins when there are fewer
   points than slices — the rows and statistics of the serial call, also
   when a rank dies under its slice.
"""

import contextlib
import functools
import hashlib
import os
import pickle
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.physics.plan as plan_module
from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.atomic.levels import LevelStructure
from repro.constants import K_B_KEV
from repro.parallel import ranks
from repro.physics.apec import GridPoint, ion_emissivity_batched
from repro.physics.plan import (
    PlanCache,
    SpectrumPlan,
    db_fingerprint,
    grid_fingerprint,
    ions_fingerprint,
)
from repro.physics.rrc import window_integrand
from repro.physics.spectrum import EnergyGrid
from repro.physics.windows import level_windows
from repro.quadrature.megabatch import (
    megabatch_gauss_windows,
    megabatch_romberg_windows,
    megabatch_simpson_windows,
)


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


@pytest.fixture(scope="module")
def grid() -> EnergyGrid:
    return EnergyGrid.from_wavelength(10.0, 45.0, 48)


def _get(cache: PlanCache, db, grid, **kw) -> SpectrumPlan:
    base = dict(method="simpson", pieces=32, k=5, tail_tol=1.0e-9, gaunt=True)
    base.update(kw)
    return cache.get(db, grid, ions=tuple(db.ions), **base)


class TestPlanStructure:
    def test_windows_match_level_windows_per_ion(self, db, grid):
        plan = _get(PlanCache(), db, grid)
        for kt in (0.4, 0.8617, 1.5):
            first, cutoff = plan.windows(kt)
            for i, ion in enumerate(plan.ions):
                lo, hi = plan.offsets[i], plan.offsets[i + 1]
                if lo == hi:
                    continue
                win = level_windows(
                    db.levels(ion).energy_kev, grid, kt, 1.0e-9, gaunt=True
                )
                np.testing.assert_array_equal(first[lo:hi], win.first)
                np.testing.assert_array_equal(cutoff[lo:hi], win.cutoff)

    def test_per_ion_active_matches_window_counts(self, db, grid):
        plan = _get(PlanCache(), db, grid)
        kt = K_B_KEV * 1.0e7
        active = plan.per_ion_active(kt)
        assert active.shape == (len(plan.ions),)
        for i, ion in enumerate(plan.ions):
            if db.n_levels(ion) == 0:
                assert active[i] == 0
                continue
            win = level_windows(
                db.levels(ion).energy_kev, grid, kt, 1.0e-9, gaunt=True
            )
            assert active[i] == win.n_active

    def test_active_pairs_stacks_per_ion_active_and_skips_empty_ions(self, db, grid):
        """The group call is the per-temperature one, row by row — also
        for a plan some of whose ions have no levels (first, middle and
        last), whose counts must read 0 without shifting a neighbour's."""
        class Sparse(AtomicDatabase):
            def levels(self, ion):
                ls = super().levels(ion)
                if ion not in (self.ions[0], self.ions[7], self.ions[-1]):
                    return ls
                return LevelStructure(
                    ls.z, ls.charge, ls.n_arr[:0], ls.l_arr[:0],
                    ls.energy_kev[:0], ls.degeneracy[:0], ls.c_eff[:0],
                )

        kts = [0.05, 0.4, 0.8617, 1.5, 0.4]
        for database in (db, Sparse(db.config)):
            plan = _get(PlanCache(), database, grid)
            stacked = plan.active_pairs(kts)
            assert stacked.shape == (len(kts), len(plan.ions))
            for row, kt in zip(stacked, kts):
                first, cutoff = plan.windows(kt)
                want = [
                    int((cutoff[lo:hi] - first[lo:hi]).sum())
                    for lo, hi in zip(plan.offsets[:-1], plan.offsets[1:])
                ]
                assert row.tolist() == want
                assert plan.per_ion_active(kt).tolist() == want
        assert [want[i] for i in (0, 7, -1)] == [0, 0, 0] and any(want)

    def test_window_memo_reuses_arrays(self, db, grid):
        plan = _get(PlanCache(), db, grid)
        a = plan.windows(0.8617)
        b = plan.windows(0.8617)
        assert a[0] is b[0] and a[1] is b[1]

    def test_per_ion_active_is_computed_once_per_temperature(self, db, grid):
        """Task compilation and the attribution weights ask for the same
        temperature: the second asker gets the first one's array, which
        lives (read-only) in the window memo's entry and leaves with it."""
        plan = _get(PlanCache(), db, grid)
        first = plan.per_ion_active(0.8617)
        assert plan.per_ion_active(0.8617) is first
        assert not first.flags.writeable
        assert len(plan._window_memo) == 1  # no second memo beside it
        for k in range(plan._WINDOW_MEMO_MAX):
            plan.windows(1.0 + 0.01 * k)
        assert len(plan._window_memo) == plan._WINDOW_MEMO_MAX
        again = plan.per_ion_active(0.8617)  # evicted with its windows
        assert again is not first
        np.testing.assert_array_equal(again, first)


#: method -> (the generic reference kernel, the name of its order knob).
GENERIC = {
    "simpson": (megabatch_simpson_windows, "pieces"),
    "romberg": (megabatch_romberg_windows, "k"),
    "gauss": (megabatch_gauss_windows, "n"),
}


def generic_launch(plan: SpectrumPlan, point: GridPoint):
    """The plan's launch by the unfactored pair-by-pair reference."""
    kernel, knob = GENERIC[plan.key.method]
    first, cutoff = plan.windows(point.kt_kev)
    return kernel(
        window_integrand(
            plan.energy_kev, plan.flat_constants(point), point.kt_kev, plan.key.gaunt
        ),
        plan.grid.edges, first, cutoff,
        lower_clip=plan.energy_kev, **{knob: plan.key.order},
    )


class TestMegabatchEquivalence:
    @pytest.mark.parametrize("method", ["simpson", "romberg", "gauss"])
    def test_matches_per_ion_path_seeded(self, db, grid, method):
        """The reference is the generic kernel; the per-ion sum runs the
        plan's own kernel and checks the summation order only."""
        rng = np.random.default_rng(2015)
        plan = _get(PlanCache(), db, grid, method=method)
        for temperature in 10 ** rng.uniform(6.3, 7.3, size=3):
            point = GridPoint(temperature_k=float(temperature), ne_cm3=1.0)
            per_ion = np.zeros(grid.n_bins)
            for ion in db.ions:
                if db.n_levels(ion) == 0:
                    continue
                per_ion += ion_emissivity_batched(
                    db, ion, point, grid, method=method,
                    pieces=32, k=5, tail_tol=1.0e-9,
                )
            got = plan.execute(point).values
            for expected in (generic_launch(plan, point).values, per_ion):
                scale = float(np.abs(expected).max())
                assert np.abs(got - expected).max() <= 1.0e-12 * scale

    def test_factorized_matches_generic_megabatch(self, db, grid):
        point = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
        for method in GENERIC:
            plan = _get(PlanCache(), db, grid, method=method)
            fast, generic = plan.execute(point), generic_launch(plan, point)
            assert fast.n_pairs == generic.n_pairs + generic.n_pairs_skipped
            scale = float(np.abs(generic.values).max())
            assert np.abs(fast.values - generic.values).max() <= 1.0e-12 * scale

    def test_execute_reports_launch_statistics(self, db, grid):
        plan = _get(PlanCache(), db, grid)
        res = plan.execute(GridPoint(temperature_k=1.0e7, ne_cm3=1.0))
        assert res.n_passes >= 1
        assert res.n_pairs > 0
        assert res.values.shape == (grid.n_bins,)


class TestExecuteMany:
    @pytest.mark.parametrize("method", ["simpson", "romberg", "gauss"])
    def test_bit_identical_to_per_point_execute(self, db, grid, method):
        plan = _get(PlanCache(), db, grid, method=method)
        points = [
            GridPoint(temperature_k=t, ne_cm3=1.0)
            for t in (4.0e6, 1.0e7, 2.5e7)
        ]
        many = plan.execute_many(points)
        assert len(many) == len(points)
        for point, res in zip(points, many):
            single = plan.execute(point)
            np.testing.assert_array_equal(res.values, single.values)
            assert res.n_pairs == single.n_pairs

    def test_empty_and_single_point(self, db, grid):
        plan = _get(PlanCache(), db, grid)
        assert plan.execute_many([]) == []
        point = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
        np.testing.assert_array_equal(
            plan.execute_many([point])[0].values, plan.execute(point).values
        )

    def test_unsafe_temperatures_fall_back_per_point(self, db, grid):
        # A kT where exp(I/kT) overflows must not poison the batch (the
        # kernel factorizes about bin edges, so it needs no fallback).
        plan = _get(PlanCache(), db, grid)
        points = [
            GridPoint(temperature_k=t, ne_cm3=1.0) for t in (1.0e4, 1.0e7)
        ]
        many = plan.execute_many(points)
        for point, res in zip(points, many):
            np.testing.assert_array_equal(
                res.values, plan.execute(point).values
            )


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


@needs_fork
class TestPointAxisAcrossRanks:
    """Points, or one point's bins, across ranks.  The pool is made
    eligible by patching what it observes — CPUs and the work floor (the
    tiny grid is far under the real one) — never by an argument: there is
    none."""

    TEMPERATURES = (2.0e6, 4.0e6, 1.0e7, 1.0e7, 2.5e7, 5.0e7)

    @pytest.fixture(scope="class")
    def cache(self):
        return PlanCache()

    @pytest.fixture(scope="class")
    def pool(self):
        pool = ranks.RankPool()
        yield pool
        pool.close()

    @pytest.fixture(scope="class")
    def coarse(self):
        return EnergyGrid.from_wavelength(10.0, 45.0, 16)

    @staticmethod
    @contextlib.contextmanager
    def _observing(pool, cpus, floor=1):
        with mock.patch.object(plan_module, "POOL", pool), \
                mock.patch.object(ranks, "usable_cpus", lambda: cpus), \
                mock.patch.object(ranks, "WORK_FLOOR", floor):
            yield

    @settings(max_examples=30, deadline=None)
    @given(
        temperatures=st.lists(
            st.sampled_from(TEMPERATURES) | st.floats(2.0e6, 5.0e7), max_size=9
        ),
        cpus=st.integers(1, 4),
        method=st.sampled_from(["simpson", "romberg", "gauss"]),
        tail_tol=st.sampled_from([0.0, 1.0e-9]),
    )
    def test_gathered_rows_are_the_per_point_rows(
        self, db, coarse, cache, pool, temperatures, cpus, method, tail_tol
    ):
        plan = _get(cache, db, coarse, method=method, tail_tol=tail_tol)
        points = [GridPoint(temperature_k=t, ne_cm3=1.0) for t in temperatures]
        before = pool.stats.slices
        with self._observing(pool, cpus):
            many = plan.execute_many(points)
        # One slice per CPU: of the points when there are enough of them,
        # else of the bins (16 here) of every point.
        assert pool.stats.slices - before == (cpus - 1 if points else 0)
        assert pool.stats.faults == 0
        assert len(many) == len(points)
        for point, row in zip(points, many):
            single = plan.execute(point)
            np.testing.assert_array_equal(row.values, single.values)
            assert (row.n_pairs, row.n_passes) == (single.n_pairs, single.n_passes)

    def test_one_point_reaches_the_pool_on_bins(self, db, coarse, cache):
        plan = _get(cache, db, coarse, tail_tol=0.0)
        point = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
        serial = plan.execute(point)
        pool = ranks.RankPool()
        try:
            with self._observing(pool, 4):
                rows = [plan.execute(point), plan.execute_many([point])[0]]
                assert plan.execute_many([]) == []
        finally:
            pool.close()
        assert pool.stats.forks == 3 and pool.stats.slices == 6
        for row in rows:
            np.testing.assert_array_equal(row.values, serial.values)
            assert row.values.flags.c_contiguous
            assert (row.n_pairs, row.n_passes) == (serial.n_pairs, serial.n_passes)

    def test_tiny_grids_stay_under_the_real_floor(self, db, grid):
        # What keeps the hypothesis suites of tier-1 on the serial path.
        pool = ranks.RankPool()
        plan = _get(PlanCache(), db, grid)
        points = [GridPoint(temperature_k=t, ne_cm3=1.0) for t in self.TEMPERATURES]
        with self._observing(pool, 4, floor=ranks.WORK_FLOOR):
            plan.execute_many(points)
        assert pool.stats.forks == 0

    def test_rank_killed_under_its_slice(self, db, coarse, cache, monkeypatch):
        """Six points cut on the points, then one cut on its bins: each
        time the rank's slice is recomputed here, with the same bits, and
        the next call forks a replacement."""
        plan = _get(cache, db, coarse)
        six = [GridPoint(temperature_k=t, ne_cm3=1.0) for t in self.TEMPERATURES]
        work = [int((c - f).sum()) for f, c in (plan.windows(p.kt_kev) for p in six)]
        first, cutoff = plan.windows(six[2].kt_kev)
        marks = np.bincount(first, minlength=17) - np.bincount(cutoff, minlength=17)
        per_bin = np.cumsum(marks[:-1]).tolist()  # in-window pairs of each bin
        caller = os.getpid()

        def dies_in_rank(real):
            @functools.wraps(real)
            def wrapped(*args, **kwargs):
                if os.getpid() != caller:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(*args, **kwargs)
            return wrapped

        cases = [  # (points, what dies in a rank, items of the lost slice)
            (six, (SpectrumPlan, "_execute_slice"), 6 - ranks.split_bounds(work, 2)[1]),
            (six[2:3], (plan_module, "rule_rrc"), 16 - ranks.split_bounds(per_bin, 2)[1]),
        ]
        for points, (owner, name), lost in cases:
            serial = [plan.execute(p) for p in points]
            real = getattr(owner, name)
            pool = ranks.RankPool()
            try:
                with self._observing(pool, 2):
                    monkeypatch.setattr(owner, name, dies_in_rank(real))
                    faulty = plan.execute_many(points)
                    monkeypatch.setattr(owner, name, real)
                    healed = plan.execute_many(points)
            finally:
                pool.close()
            assert pool.stats.faults == 1 and pool.stats.reissued_items == lost
            assert pool.stats.forks == 2 and pool.stats.slices == 2
            for rows in (faulty, healed):
                assert len(rows) == len(points)
                for row, want in zip(rows, serial):
                    np.testing.assert_array_equal(row.values, want.values)
                    assert (row.n_pairs, row.n_passes) == (want.n_pairs, want.n_passes)

    def test_plan_pickles_without_its_memo(self, db, coarse, cache):
        plan = _get(cache, db, coarse)
        point = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
        want = plan.execute(point)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.key == plan.key and not clone._window_memo
        np.testing.assert_array_equal(clone.execute(point).values, want.values)


class TestFingerprints:
    """Memoized, and still the strings they always were."""

    def test_strings_are_the_unmemoized_hashes(self, db, grid):
        for _ in range(2):  # second round: every memo hits
            assert grid_fingerprint(grid) == hashlib.sha1(
                grid.edges.tobytes()
            ).hexdigest()
            assert db_fingerprint(db) == hashlib.sha1(
                f"atomicdb|n_max={db.config.n_max}|z_max={db.config.z_max}".encode()
            ).hexdigest()
            text = "|".join(f"{ion.z},{ion.charge}" for ion in db.ions)
            assert ions_fingerprint(db.ions) == hashlib.sha1(text.encode()).hexdigest()

    def test_ions_memo_is_by_tuple_not_by_accident(self, db):
        whole = ions_fingerprint(db.ions)
        assert ions_fingerprint(list(db.ions)) == whole
        assert ions_fingerprint(iter(db.ions)) == whole
        assert ions_fingerprint(tuple(list(db.ions))) == whole
        assert ions_fingerprint(db.ions[1:]) != whole
        # Short-lived tuples may reuse an id; each must get its own hash.
        seen = {ions_fingerprint(db.ions[:n]) for n in range(1, 30) for _ in range(3)}
        assert len(seen) == 29

    def test_equal_grids_share_a_fingerprint(self, grid):
        twin = EnergyGrid(grid.edges.copy())
        assert twin is not grid and grid_fingerprint(twin) == grid_fingerprint(grid)


class TestPlanCache:
    def test_same_inputs_hit(self, db, grid):
        cache = PlanCache()
        a = _get(cache, db, grid)
        b = _get(cache, db, grid)
        assert a is b
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.compilations == 1

    @pytest.mark.parametrize(
        "method, change",
        [
            ("simpson", {"method": "romberg"}),
            ("simpson", {"pieces": 64}),
            ("romberg", {"k": 6}),
            ("simpson", {"tail_tol": 1.0e-6}),
            ("simpson", {"gaunt": False}),
            ("gauss", {"gl_points": 8}),
        ],
        ids=[f"change{i}" for i in range(6)],
    )
    def test_every_key_knob_misses(self, db, grid, method, change):
        cache = PlanCache()
        _get(cache, db, grid, method=method)
        _get(cache, db, grid, **{"method": method, **change})
        assert cache.stats.compilations == 2
        assert cache.stats.hits == 0

    @pytest.mark.parametrize(
        "method, ignored",
        [
            ("simpson", {"k": 7, "gl_points": 8}),
            ("romberg", {"pieces": 64, "gl_points": 8}),
            ("gauss", {"pieces": 64, "k": 7}),
        ],
    )
    def test_one_plan_per_rule(self, db, grid, method, ignored):
        """The key carries the method's own order and nothing the method
        ignores: another rule's knob neither compiles nor holds a twin."""
        cache = PlanCache()
        plan = _get(cache, db, grid, method=method)
        assert _get(cache, db, grid, method=method, **ignored) is plan
        assert (cache.stats.hits, cache.stats.compilations, len(cache)) == (1, 1, 1)

    def test_grid_change_misses(self, db, grid):
        cache = PlanCache()
        _get(cache, db, grid)
        _get(cache, db, EnergyGrid.from_wavelength(10.0, 45.0, 50))
        assert cache.stats.compilations == 2

    def test_temperature_never_recompiles(self, db, grid):
        cache = PlanCache()
        plan = _get(cache, db, grid)
        for t in (5.0e6, 1.0e7, 2.0e7):
            plan.execute(GridPoint(temperature_k=t, ne_cm3=1.0))
        again = _get(cache, db, grid)
        assert again is plan
        assert cache.stats.compilations == 1

    def test_lru_eviction(self, db, grid):
        cache = PlanCache(max_entries=2)
        _get(cache, db, grid, pieces=16)
        _get(cache, db, grid, pieces=32)
        _get(cache, db, grid, pieces=64)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (pieces=16) was evicted; refetching recompiles.
        _get(cache, db, grid, pieces=16)
        assert cache.stats.compilations == 4

    def test_rejects_unknown_method(self, db, grid):
        with pytest.raises(ValueError, match="method"):
            _get(PlanCache(), db, grid, method="midpoint")

    def test_stats_as_dict(self, db, grid):
        cache = PlanCache()
        _get(cache, db, grid)
        d = cache.stats.as_dict()
        assert d["compilations"] == 1
        assert cache.stats.lookups == 1
        assert cache.stats.hit_rate == 0.0
