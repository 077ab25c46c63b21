"""The one RRC kernel of every linear rule (:mod:`repro.physics.rrc_kernel`).

Pinned promises:

1. Row ``j`` of ``SpectrumPlan.execute_many`` is bit-identical to
   ``execute(points[j])`` for any batch composition and order — wide and
   narrow pruned windows mixed, duplicates, batches wider than the
   kernel's temperature block, and temperatures so low that factoring
   ``exp(-(E - I)/kT)`` about 0 would overflow.
2. The factorized kernel agrees with the generic unfactored megabatch at
   every such temperature, for Simpson, Romberg and Gauss.
3. Dense Simpson-64 stays within 1e-9 (peak-relative) of the scalar QAGS
   oracle over the sweeps' temperature range, with and without the Gaunt
   factor (Fig. 8, gated).
4. One 400-bin dense spectrum allocates no megabyte temporaries.
5. The expansion about bin centres agrees with the generic kernel on any
   grid — one bin to hundreds, linear and geometric, bins spanning up to
   a factor 100 in energy — at any rule, temperature and window; its
   centres and order are functions of the edges and the rule alone; any
   cut of its bins into runs joins to the whole call bit for bit.
6. The per-temperature moment tables are built once per temperature for
   as many grid points as a node keeps in flight.
7. A level block reaches the spectrum as one left fold along the level
   axis: NumPy's axis-0 ``add.reduce`` is that fold for two or more
   columns, and a run one bin wide (a lone column, which ``add.reduce``
   sums pairwise) is still bit-equal to its bin of the whole call.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.atomic.abundances import SOLAR
from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.bench.workloads import small_real_database, small_real_grid
from repro.constants import K_B_KEV
from repro.physics.apec import GridPoint, SerialAPEC, ion_emissivity_batched
from repro.physics.plan import PlanCache, SpectrumPlan
from repro.physics.rrc import window_integrand
from repro.physics.rrc_kernel import (
    _RHO_MAX,
    _TRUNCATION,
    _Expansion,
    _expansion_of_edges,
    rule_rrc,
)
from repro.physics.spectrum import EnergyGrid
from repro.physics.windows import level_windows
from repro.quadrature.batch import linear_rule
from tests.physics.test_plan import GENERIC, generic_launch


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
    @pytest.mark.parametrize(
        "rule",
        [{}, {"method": "romberg", "k": 5}, {"method": "gauss", "gl_points": 8}],
        ids=["simpson", "romberg", "gauss"],
    )
    @pytest.mark.parametrize("gaunt", [True, False])
    @pytest.mark.parametrize("temperature_k", [2.0e4, 3.0e5, 2.0e6, 5.0e7])
    def test_matches_unfactored_megabatch(self, db, gaunt, temperature_k, rule):
        plan = _plan(db, gaunt=gaunt, **rule)
        point = _point(temperature_k)
        generic = generic_launch(plan, point)
        fast = plan.execute(point)
        assert fast.n_pairs == generic.n_pairs + generic.n_pairs_skipped
        assert np.all(np.isfinite(fast.values))
        scale = float(np.abs(generic.values).max())
        assert np.abs(fast.values - generic.values).max() <= 1.0e-12 * scale

    def test_rules_beyond_the_node_limit_rejected(self, db):
        """A rule of 2**14 nodes or more is refused whatever the method,
        before its ``n_bins x nodes`` tables are allocated."""
        for rule in (
            {"pieces": 1 << 16}, {"pieces": 1 << 14},
            {"method": "romberg", "k": 14}, {"method": "romberg", "k": 40},
            {"method": "gauss", "gl_points": 1 << 14},
        ):
            plan = _plan(db, **rule)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="exceeds the kernel's 16384 nodes"):
                    plan.execute(_point(1.0e7))
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
            finally:
                tracemalloc.stop()


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


class TestTheLevelFold:
    @given(
        levels=st.integers(1, 400),
        width=st.integers(2, 500),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_numpy_axis0_add_reduce_is_the_row_by_row_fold(self, levels, width, seed):
        """A canary on NumPy itself, not on the kernel: ``rule_rrc`` folds
        each level block onto the spectrum with ``np.add.reduce(pair,
        axis=0, out=...)`` and is bit-identical to its per-level sum only
        while that reduction adds whole rows in order.  If this fails
        after a NumPy upgrade, the kernel goldens' sha1s and hex floats
        move because of this primitive: mend the fold in
        :func:`repro.physics.rrc_kernel.rule_rrc`, never the goldens."""
        rng = np.random.default_rng(seed)
        terms = 10.0 ** rng.uniform(-8.0, 8.0, (levels, width))  # 16 decades
        terms[rng.random(terms.shape) < 0.25] = 0.0  # pairs outside a window
        want = terms[0].copy()
        for row in terms[1:]:
            want += row
        got = np.empty(width)
        np.add.reduce(terms, axis=0, out=got)
        np.testing.assert_array_equal(got, want)

    @given(
        width=st.integers(1, 40),
        ions=st.integers(1, 64),
        bins=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_numpy_axis1_add_reduce_is_the_ion_fold_of_family_spectra(
        self, width, ions, bins, seed
    ):
        """The same canary for the service payload:
        ``repro.service.requests.family_spectra`` folds its C-contiguous
        ``(W, n_ions, n_bins)`` emission block with ``np.add.reduce(block,
        axis=1, out=rows)`` and is bit-identical to the ion-order left
        fold only while that reduction adds whole ion rows in order.  If
        this fails after a NumPy upgrade, mend the fold in
        ``family_spectra``, never the serve, obs or lattice goldens."""
        rng = np.random.default_rng(seed)
        block = 10.0 ** rng.uniform(-8.0, 8.0, (width, ions, bins))  # 16 decades
        block[rng.random(block.shape) < 0.25] = 0.0  # lines an ion lacks
        want = block[:, 0].copy()
        for i in range(1, ions):
            want += block[:, i]
        got = np.empty((width, bins))
        np.add.reduce(block, axis=1, out=got)
        np.testing.assert_array_equal(got, want)

    @given(
        lines=st.integers(0, 8),
        width=st.integers(1, 12),
        ions=st.integers(1, 16),
        bins=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_numpy_axis0_add_reduce_is_the_line_fold_of_the_payload_kernel(
        self, lines, width, ions, bins, seed
    ):
        """The canary for the payload kernel's line fold: the service
        writes a continuum and ``lines`` line terms into a C-contiguous
        ``(lines + 1, W, ions, n_bins)`` stack and folds it with one
        ``np.add.reduce(stack, axis=0)``, bit-identical to the oracle's
        continuum-then-lines sum only while that reduction adds whole
        rows in order.  If this fails after a NumPy upgrade, mend the
        fold in ``repro.service.requests``, never the serve, obs or
        lattice goldens."""
        rng = np.random.default_rng(seed)
        stack = 10.0 ** rng.uniform(-8.0, 8.0, (lines + 1, width, ions, bins))
        stack[rng.random(stack.shape) < 0.25] = 0.0  # lines an ion lacks
        want = stack[0].copy()
        for term in stack[1:]:
            want += term
        np.testing.assert_array_equal(np.add.reduce(stack, axis=0), want)

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0e-9], ids=["dense", "pruned"])
    @pytest.mark.parametrize(
        "rule",
        [{}, {"method": "romberg", "k": 5}, {"method": "gauss", "gl_points": 8}],
        ids=["simpson", "romberg", "gauss"],
    )
    def test_one_bin_runs_are_the_whole_call(self, rule, tail_tol):
        """A run one bin wide folds a lone ``(levels, 1)`` column, which
        ``np.add.reduce`` would sum pairwise.  On the real plan (1 326
        levels, the 400-bin grid) the first, the last and every 7th bin
        alone, and one two-bin run, equal those bins of the whole call."""
        knobs = {"method": "simpson", "tail_tol": tail_tol, **rule}
        plan = PlanCache().get(small_real_database(), small_real_grid(400), **knobs)
        launch = plan._launch([_point(1.0e7)], SOLAR)
        whole = rule_rrc(*launch)[0].values
        last = whole.size - 1
        runs = [range(b, b + 1) for b in sorted({*range(0, last, 7), last})]
        for run in [*runs, range(267, 269)]:
            got = rule_rrc(*launch, bins=run)[0].values
            np.testing.assert_array_equal(got, whole[run.start : run.stop], err_msg=str(run))


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


@st.composite
def kernel_inputs(draw):
    """A grid, a handful of levels with edges below, inside and above it,
    a rule (method and order), a temperature and the cuts of a bin axis
    into contiguous runs (empty ones too)."""
    n_bins = draw(st.integers(1, 256))
    e_lo = 10.0 ** draw(st.floats(-2.0, 0.5))
    ratio = draw(st.floats(1.0005, 100.0))  # E_hi / E_lo of the first bin
    if draw(st.booleans()):
        # Geometric: every bin has that ratio, the grid spans <= 1e4.
        edges = e_lo * min(ratio, 1.0e4 ** (1.0 / n_bins)) ** np.arange(n_bins + 1)
    else:
        edges = e_lo * (1.0 + (ratio - 1.0) * np.arange(n_bins + 1))
    decades = st.floats(np.log10(edges[0]) - 2.0, np.log10(edges[-1]) + 0.5)
    energies = 10.0 ** np.array(draw(st.lists(decades, min_size=1, max_size=12)))
    c_l = np.array(
        draw(st.lists(st.floats(0.5, 2.0), min_size=energies.size, max_size=energies.size))
    )
    return (
        EnergyGrid(edges), energies, c_l,
        draw(st.sampled_from([
            ("simpson", 2), ("simpson", 8), ("simpson", 64), ("simpson", 128),
            ("romberg", 0), ("romberg", 3), ("romberg", 7),
            ("gauss", 1), ("gauss", 5), ("gauss", 12),
        ])),
        K_B_KEV * 10.0 ** draw(st.floats(4.0, 9.0)),
        draw(st.booleans()),
        draw(st.sampled_from([0.0, 1.0e-9])),
        [0, *sorted(draw(st.lists(st.integers(0, n_bins), max_size=4))), n_bins],
    )


class TestTheExpansionItself:
    @given(inputs=kernel_inputs())
    @example(inputs=(  # 10^4 K over one 80 keV bin: every node value underflows
        EnergyGrid(np.array([1.0, 81.0])), np.array([1.0, 1.0, 12.40937761]),
        np.array([1.0, 1.0, 0.5]), ("gauss", 12), K_B_KEV * 1.0e4, False, 0.0, [0, 1],
    ))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_generic_kernel_on_any_grid(self, inputs):
        """... and its runs of bins, joined, are the whole call bit for bit
        with its statistics (edge bins in a later run than the first are
        where one GEMV per run would move bits)."""
        grid, energies, c_l, rule, kt, gaunt, tail_tol, cuts = inputs
        win = level_windows(energies, grid, kt, tail_tol, gaunt=gaunt)
        kernel, knob = GENERIC[rule[0]]
        generic = kernel(
            window_integrand(energies, c_l, kt, gaunt),
            grid.edges, win.first, win.cutoff, lower_clip=energies, **{knob: rule[1]},
        )
        fast = rule_rrc(
            grid, rule, gaunt, energies, win.first,
            win.cutoff[None, :], c_l[None, :], np.array([kt]),
        )[0]
        assert fast.n_pairs == generic.n_pairs + generic.n_pairs_skipped
        assert np.all(np.isfinite(fast.values))
        scale = float(np.abs(generic.values).max())
        # The generic kernel rounds E before it subtracts I_l, so its own
        # exponent carries eps * E / kT: beyond 1e-12 only where a grid
        # reaches thousands of kT (1.5e-14 observed below 100 kT).
        budget = 1.0e-12 + 2.0 * np.finfo(float).eps * grid.edges[-1] / kt
        # Below the normal range a value keeps absolute, not relative,
        # precision: each kernel rounds a node's subnormal exponential to a
        # multiple of the smallest subnormal before the bin width, the rule
        # weight and C_l scale it: a floor near 1e-320, below any normal value.
        subnormal = (
            np.finfo(float).smallest_subnormal * linear_rule(*rule)[0].size
            * max(1.0, float(np.diff(grid.edges).max())) * float(c_l.sum())
        )
        assert np.abs(fast.values - generic.values).max() <= budget * scale + subnormal
        runs = [
            rule_rrc(
                grid, rule, gaunt, energies, win.first, win.cutoff[None, :],
                c_l[None, :], np.array([kt]), bins=range(a, b),
            )[0]
            for a, b in zip(cuts, cuts[1:])
        ]
        np.testing.assert_array_equal(np.concatenate([r.values for r in runs]), fast.values)
        assert {(r.n_pairs, r.n_passes) for r in runs} == {(fast.n_pairs, fast.n_passes)}

    @pytest.mark.parametrize("tail_tol", [1.0e-9, 0.0], ids=["pruned", "dense"])
    def test_rows_bit_identical_on_a_one_centre_grid(self, db, tail_tol):
        """``TestBatchInvariance`` runs on a grid coarse enough for one
        centre per node; this one expands every bin about one centre."""
        grid = EnergyGrid.linear(0.05, 8.0, 240)
        assert _Expansion(grid.edges, ("simpson", 64)).cells == 1
        plan = PlanCache().get(db, grid, method="simpson", tail_tol=tail_tol)
        points = [_point(t) for t in np.geomspace(2.0e4, 8.0e7, 10)]
        points += points[3::-2]
        for point, row in zip(points, plan.execute_many(points)):
            np.testing.assert_array_equal(row.values, plan.execute(point).values)

    @pytest.mark.parametrize(
        "grid, cells, order",
        [
            (small_real_grid(400), 1, 7),
            (EnergyGrid.linear(0.05, 8.0, 4000), 1, 10),
            (EnergyGrid.linear(0.05, 8.0, 60), 1, 44),
            (EnergyGrid.linear(0.05, 8.0, 1), 65, 1),
        ],
        ids=["benchmark", "linear4000", "linear60", "one_bin"],
    )
    def test_centres_and_order_follow_from_the_edges(self, grid, cells, order):
        """No level, window or temperature is an input of the expansion;
        at one centre per node it is the node-by-node rule (order 1)."""
        exp = _Expansion(grid.edges, ("simpson", 64))
        assert (exp.cells, exp.order) == (cells, order)
        assert exp.xbar.shape == (grid.n_bins * cells,)
        rho = float(np.abs(exp.eta).max())
        assert rho <= _RHO_MAX and rho**exp.order <= _TRUNCATION
        assert (rho == 0.0) == (cells == 65)


class TestMomentMemo:
    def test_a_nodes_worth_of_temperatures_is_built_once_each(self):
        """The paper's node keeps 24 ranks' grid points in flight and their
        ions arrive interleaved as separate per-ion calls (the parent's
        8-entry memo rebuilt the whole-grid ``exp`` 2508 times here)."""
        db = small_real_database()
        grid = small_real_grid(400)
        ions = [ion for ion in db.ions if db.n_levels(ion) > 0][::20]
        _expansion_of_edges.cache_clear()
        for ion in ions:
            for temperature_k in np.geomspace(2.0e6, 5.0e7, 24):
                ion_emissivity_batched(db, ion, _point(float(temperature_k)), grid)
        info = _expansion_of_edges(
            grid.edges.tobytes(), ("simpson", 64)
        ).moments.cache_info()
        assert info.misses == 24
        assert info.hits == 24 * (len(ions) - 1)
        assert info.maxsize >= 64
