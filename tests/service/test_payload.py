"""The factorized service payload: one emission block per request family.

``emission_block`` evaluates every (temperature, ion) of a family in a
handful of array passes; ``ion_emission`` stays as the scalar oracle.
The contract is bit identity — the golden serve trace, the cache and the
lattice certificates all assume the payload's bits never moved — plus a
memory rule: a dispatched group holds about one bounded run of its block
at a time and nothing once its tasks have executed.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.service import requests as service_requests
from repro.service.requests import (
    BLOCK_TILE_BYTES,
    FamilyBasis,
    SpectrumRequest,
    compile_group_tasks,
    compile_tasks,
    emission_block,
    family_plan,
    family_spectra,
    ion_emission,
    request_grid,
    request_spectrum,
)

Z_MAX = 8


def basis_of(db: AtomicDatabase, z_max: int, n_bins: int) -> FamilyBasis:
    """A family's cached basis, reached the way the broker reaches it."""
    return family_plan(db, SpectrumRequest(temperature_k=1.0, z_max=z_max, n_bins=n_bins)).basis


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


class _LevelsDatabase(AtomicDatabase):
    """A database whose per-ion level counts the test chooses, so the
    line ladder's length (``min(n_levels, 8)`` lines) can be swept
    without rebuilding level structures."""

    def __init__(self, n_levels: list[int]) -> None:
        super().__init__(AtomicConfig(n_max=4, z_max=Z_MAX))
        self._counts = dict(zip(self.ions, n_levels))

    def n_levels(self, ion) -> int:
        return self._counts[ion]


temperatures = st.floats(min_value=1.0e5, max_value=1.0e9)
densities = st.floats(min_value=1.0e-3, max_value=1.0e3)


@st.composite
def family(draw):
    n_ions = Z_MAX * (Z_MAX + 1) // 2
    n_levels = draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=n_ions, max_size=n_ions)
    )
    z_max = draw(st.integers(min_value=1, max_value=Z_MAX))
    n_bins = draw(st.integers(min_value=1, max_value=512))
    ne = draw(densities)
    temps = draw(st.lists(temperatures, min_size=1, max_size=5))
    requests = tuple(
        SpectrumRequest(temperature_k=t, ne_cm3=ne, z_max=z_max, n_bins=n_bins)
        for t in temps
    )
    return _LevelsDatabase(n_levels), requests


def _fold(basis: FamilyBasis, request: SpectrumRequest) -> np.ndarray:
    """The oracle spectrum: ion-order left fold of ``ion_emission``."""
    out = np.zeros(request.n_bins)
    for ion, n_levels in zip(basis.ions, basis.n_levels):
        out += ion_emission(ion, n_levels, request)
    return out


class TestEmissionBlock:
    @given(case=family())
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_the_scalar_oracle_bit_for_bit(self, case):
        stub, requests = case
        lead = requests[0]
        basis = FamilyBasis.build(stub, lead.z_max, lead.n_bins)
        block = emission_block(basis, requests)
        assert block.shape == (len(requests), len(basis.ions), lead.n_bins)
        for j, request in enumerate(requests):
            for i, ion in enumerate(basis.ions):
                want = ion_emission(ion, basis.n_levels[i], request)
                assert np.array_equal(block[j, i], want), (ion.name, request)

    def test_an_ion_run_is_a_slice_of_the_full_block(self, db):
        requests = tuple(SpectrumRequest(temperature_k=t) for t in (3.0e6, 4.0e7))
        basis = basis_of(db, 8, 64)
        full = emission_block(basis, requests)
        part = emission_block(basis, requests, slice(14, 29))
        assert np.array_equal(part, full[:, 14:29])

    def test_density_varies_per_request(self, db):
        a = SpectrumRequest(temperature_k=1.0e7, ne_cm3=1.0)
        b = SpectrumRequest(temperature_k=1.0e7, ne_cm3=3.0)
        block = emission_block(basis_of(db, 8, 64), (a, b))
        assert np.array_equal(block[1], block[0] * 3.0)

    def test_basis_is_cached_per_family_and_read_only(self, db):
        basis = basis_of(db, 6, 48)
        assert basis_of(AtomicDatabase(db.config), 6, 48) is basis
        assert basis_of(db, 6, 32) is not basis
        assert basis.grid is request_grid(SpectrumRequest(temperature_k=1e7, n_bins=48))
        assert all(ion.z <= 6 for ion in basis.ions)
        with pytest.raises(ValueError):
            basis.profiles[...] = 1.0


class TestFamilySpectra:
    @given(
        temps=st.lists(temperatures, min_size=1, max_size=3),
        n_bins=st.sampled_from([1, 7, 64, 200]),
        ne=densities,
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_single_requests_and_the_oracle_fold(self, temps, n_bins, ne):
        config = AtomicConfig.tiny()
        requests = tuple(
            SpectrumRequest(temperature_k=t, ne_cm3=ne, n_bins=n_bins) for t in temps
        )
        scope = (config.n_max, config.z_max)
        stacked = family_spectra((requests, *scope))
        basis = basis_of(AtomicDatabase(config), 8, n_bins)
        for j, request in enumerate(requests):
            assert np.array_equal(stacked[j], request_spectrum((request, *scope)))
            assert np.array_equal(stacked[j], _fold(basis, request))

    def test_a_one_bin_group_is_the_sequential_fold(self, db, monkeypatch):
        """One bin makes the block's ion axis the contiguous one, which
        ``np.add.reduce`` sums pairwise, so a lone bin keeps the
        sequential fold.  The payload itself is +0.0 in every one-bin row
        (the continuum's edge mask and the line window leave nothing
        inside a lone bin), so the fold is also run on a block with mass."""
        temps = np.geomspace(1.0e5, 1.0e9, 9)
        requests = tuple(SpectrumRequest(temperature_k=float(t), n_bins=1) for t in temps)
        scope = (db.config.n_max, db.config.z_max)
        basis = basis_of(db, 8, 1)
        stacked = family_spectra((requests, *scope))
        for j, request in enumerate(requests):
            assert stacked[j].tobytes() == _fold(basis, request).tobytes()
        block = 10.0 ** np.random.default_rng(1).uniform(-8.0, 8.0, (9, len(basis.ions), 1))
        monkeypatch.setattr(service_requests, "emission_block", lambda *args: block)
        want = np.zeros((9, 1))
        for i in range(len(basis.ions)):
            want += block[:, i]
        assert family_spectra((requests, *scope)).tobytes() == want.tobytes()

    def test_widths_past_the_temperature_tile(self, db):
        # 36 ions x 64 bins is 18 KiB a temperature: 75 rows span many
        # tiles, and rows either side of each seam must not notice.
        temps = np.geomspace(1.0e5, 1.0e9, 75)
        requests = tuple(SpectrumRequest(temperature_k=float(t)) for t in temps)
        assert len(requests) * 36 * 64 * 8 > 2 * BLOCK_TILE_BYTES
        scope = (db.config.n_max, db.config.z_max)
        stacked = family_spectra((requests, *scope))
        for j, request in enumerate(requests):
            assert np.array_equal(stacked[j], request_spectrum((request, *scope)))


def _burst_group() -> tuple[SpectrumRequest, ...]:
    return tuple(
        SpectrumRequest(temperature_k=float(t), n_bins=128)
        for t in np.geomspace(2.0e6, 5.0e7, 32)
    )


class TestSharedBlockMemory:
    def test_task_rows_match_the_oracle_and_survive_a_rerun(self, db):
        group = _burst_group()[:3]
        basis = basis_of(db, 8, 128)
        tasks = compile_group_tasks(group, db)
        singles = compile_tasks(group[1], db)
        for _ in range(2):  # the second round re-evaluates dropped runs
            for i, task in enumerate(tasks):
                rows = task.execute()
                for j, request in enumerate(group):
                    want = ion_emission(basis.ions[i], basis.n_levels[i], request)
                    assert np.array_equal(rows[j], want)
                assert np.array_equal(singles[i].run_cpu(), rows[1])

    def test_group_peak_stays_under_four_tiles(self, db):
        group = _burst_group()
        full_block = len(group) * 36 * 128 * 8
        assert full_block > 2 * BLOCK_TILE_BYTES  # the bound means something
        tasks = compile_group_tasks(group, db)  # basis built outside the window
        total = np.zeros((len(group), 128))
        gc.collect()
        tracemalloc.start()
        try:
            for task in tasks:
                total += task.execute()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One run of ions, its multiply-add scratch and the (W, n_bins)
        # exp temporaries — never the whole block, which with its
        # scratch would be ~2.3 MiB here.
        assert peak < 4 * BLOCK_TILE_BYTES
        assert np.all(np.isfinite(total)) and total.max() > 0.0

    def test_block_is_collectable_once_its_tasks_have_executed(self, db):
        tasks = compile_group_tasks(_burst_group(), db)
        blocks = []
        for task in tasks:
            rows = task.execute()
            if not any(ref() is rows.base for ref in blocks):
                blocks.append(weakref.ref(rows.base))
            del rows
        gc.collect()
        assert len(blocks) > 1  # this group's block came in several runs
        # The task list is still alive; its payload memory is not.
        assert tasks and all(ref() is None for ref in blocks)
