"""The model's one RRC path: ``SerialAPEC`` executes the cached plan.

The contract pinned here, for every batch rule x {dense, pruned} x
{all ions, a subset via ``ions=``}:

1. ``SerialAPEC.compute(p).values`` *is* the cached plan's
   ``execute(p).values`` — ``array_equal``, not close.
2. The plan is compiled once per configuration: a second ``compute`` at
   a new temperature adds nothing to ``PLAN_CACHE.stats.compilations``.
3. The plan agrees with its references: the generic pair-by-pair
   window kernel of its rule (<= 1e-12 peak-relative) and scalar QAGS to
   the ``sweep_dense`` check's bound (<= 1e-9).  The in-order sum of the
   per-ion ``ion_emissivity_batched`` runs the plan's own kernel, so it
   checks summation order only (<= 1e-12).
4. The knobs that selected other paths are gone, loudly: ``fused=``,
   ``shards=``, ``backend=``, ``jobs=`` raise ``TypeError`` on the
   model, and on the broker's config too: it has one payload route.

The grid (0.05-8 keV at 2e6 K) is one where ``tail_tol = 1e-9`` really
prunes — about half the dense (level, bin) pairs.
"""

import numpy as np
import pytest

from repro.approx import peak_rel_error
from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.physics.apec import GridPoint, SerialAPEC, ion_emissivity_batched
from repro.physics.plan import PLAN_CACHE
from repro.physics.spectrum import EnergyGrid
from repro.service.broker import ServiceConfig
from tests.physics.test_plan import generic_launch

RULES = {"simpson-batch": "simpson", "romberg": "romberg", "gauss": "gauss"}
TAIL_TOLS = [0.0, 1.0e-9]
POINT = GridPoint(temperature_k=2.0e6, ne_cm3=1.0)


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


@pytest.fixture(scope="module")
def grid() -> EnergyGrid:
    return EnergyGrid.linear(0.05, 8.0, 64)


@pytest.fixture(scope="module", params=["all", "subset"])
def ions(request, db):
    """``None`` (the whole database) or every third ion, as ``ions=``."""
    return None if request.param == "all" else tuple(db.ions[::3])


@pytest.fixture(scope="module")
def qags_reference(db, grid):
    """Scalar-oracle spectra, one QAGS sweep per (tail_tol, ion set)."""
    memo: dict = {}

    def reference(tail_tol: float, ions) -> np.ndarray:
        key = (tail_tol, ions)
        if key not in memo:
            memo[key] = SerialAPEC(
                db, grid, method="qags", tail_tol=tail_tol
            ).compute(POINT, ions=ions).values
        return memo[key]

    return reference


@pytest.mark.parametrize("tail_tol", TAIL_TOLS, ids=["dense", "pruned"])
@pytest.mark.parametrize("method", sorted(RULES))
class TestModelExecutesTheCachedPlan:
    def test_compute_is_the_plans_execute(self, db, grid, ions, method, tail_tol):
        model = SerialAPEC(db, grid, method=method, tail_tol=tail_tol)
        got = model.compute(POINT, ions=ions).values
        plan = PLAN_CACHE.get(
            db, grid, ions=ions, method=RULES[method], tail_tol=tail_tol
        )
        np.testing.assert_array_equal(got, plan.execute(POINT).values)
        assert got.max() > 0.0

    def test_new_temperature_compiles_nothing(self, db, grid, ions, method, tail_tol):
        model = SerialAPEC(db, grid, method=method, tail_tol=tail_tol)
        model.compute(POINT, ions=ions)
        compiled = PLAN_CACHE.stats.compilations
        hits = PLAN_CACHE.stats.hits
        model.compute(GridPoint(temperature_k=3.1e6, ne_cm3=1.0), ions=ions)
        assert PLAN_CACHE.stats.compilations == compiled
        assert PLAN_CACHE.stats.hits == hits + 1

    def test_agrees_with_both_oracles(
        self, db, grid, ions, qags_reference, method, tail_tol
    ):
        got = SerialAPEC(db, grid, method=method, tail_tol=tail_tol).compute(
            POINT, ions=ions
        ).values
        per_ion = np.zeros(grid.n_bins)
        for ion in ions if ions is not None else db.ions:
            per_ion += ion_emissivity_batched(
                db, ion, POINT, grid, method=RULES[method], tail_tol=tail_tol
            )
        assert peak_rel_error(got, per_ion) <= 1.0e-12
        plan = PLAN_CACHE.get(
            db, grid, ions=ions, method=RULES[method], tail_tol=tail_tol
        )
        assert peak_rel_error(got, generic_launch(plan, POINT).values) <= 1.0e-12
        assert peak_rel_error(got, qags_reference(tail_tol, ions)) <= 1.0e-9


#: ``SerialAPEC.compute(POINT).values[::8]`` on the fixtures above as the
#: parent commit (fd8f041) computed it on its default per-ion path —
#: recorded there before the first edit.  The plan reassociates the ion
#: sum, so agreement is to rounding, not bit for bit.
PARENT_DEFAULT_PATH = {
    ('gauss', 0.0): [
        "0x1.0946434155160p-24", "0x1.e079c106fd0eep-26", "0x1.85f0a52dc1973p-34", "0x1.39fe5e326749cp-42",
        "0x1.f8064c813e373p-51", "0x1.93d503b4aa14cp-59", "0x1.43393c2eff5e6p-67", "0x1.02892a298c680p-75",
    ],
    ('gauss', 1e-09): [
        "0x1.0946434155160p-24", "0x1.e079c106fd0eep-26", "0x1.85f0a52dc1973p-34", "0x1.39fe5e326749bp-42",
        "0x1.f3df634e0db5ep-51", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ],
    ('romberg', 0.0): [
        "0x1.094643415515ep-24", "0x1.e079c106fd0f5p-26", "0x1.85f0a52dc1974p-34", "0x1.39fe5e326749bp-42",
        "0x1.f8064c813e38bp-51", "0x1.93d503b4aa138p-59", "0x1.43393c2eff5d8p-67", "0x1.02892a298c683p-75",
    ],
    ('romberg', 1e-09): [
        "0x1.094643415515ep-24", "0x1.e079c106fd0f5p-26", "0x1.85f0a52dc1975p-34", "0x1.39fe5e326749cp-42",
        "0x1.f3df634e0db78p-51", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ],
    ('simpson-batch', 0.0): [
        "0x1.0946433f96bbbp-24", "0x1.e079c107b1ee1p-26", "0x1.85f0a52e56544p-34", "0x1.39fe5e32df8a5p-42",
        "0x1.f8064c81ff9d1p-51", "0x1.93d503b5452f7p-59", "0x1.43393c2f7b97dp-67", "0x1.02892a29efcf2p-75",
    ],
    ('simpson-batch', 1e-09): [
        "0x1.0946433f96bbbp-24", "0x1.e079c107b1ee1p-26", "0x1.85f0a52e56544p-34", "0x1.39fe5e32df8a5p-42",
        "0x1.f3df634ecd790p-51", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ],
}


@pytest.mark.parametrize("tail_tol", TAIL_TOLS, ids=["dense", "pruned"])
@pytest.mark.parametrize("method", sorted(RULES))
def test_matches_the_parent_commits_default_path(db, grid, method, tail_tol):
    want = np.array(
        [float.fromhex(v) for v in PARENT_DEFAULT_PATH[method, tail_tol]]
    )
    got = SerialAPEC(db, grid, method=method, tail_tol=tail_tol).compute(POINT).values
    assert peak_rel_error(got[::8], want) <= 1.0e-12


def test_pruning_bites_on_this_grid(db, grid):
    dense = PLAN_CACHE.get(db, grid, method="simpson").execute(POINT)
    pruned = PLAN_CACHE.get(db, grid, method="simpson", tail_tol=1.0e-9).execute(POINT)
    assert pruned.n_pairs < 0.75 * dense.n_pairs


def test_scalar_methods_stay_off_the_plan_cache(db, grid):
    """``qags`` / scalar ``simpson`` are the oracle loop, not a plan."""
    ions = tuple(db.ions[:4])
    lookups = PLAN_CACHE.stats.lookups
    SerialAPEC(db, grid, method="simpson").compute(POINT, ions=ions)
    assert PLAN_CACHE.stats.lookups == lookups


@pytest.mark.parametrize(
    "removed",
    [{"fused": True}, {"shards": 4}, {"backend": "thread"}, {"jobs": 2}],
    ids=["fused", "shards", "backend", "jobs"],
)
def test_removed_keywords_raise(db, grid, removed):
    with pytest.raises(TypeError):
        SerialAPEC(db, grid, method="simpson-batch", **removed)


def test_broker_refuses_the_process_backend():
    with pytest.raises(TypeError):
        ServiceConfig(backend="process")
