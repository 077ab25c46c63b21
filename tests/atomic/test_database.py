"""AtomicDatabase assembly, caching, validation."""

import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.atomic.ions import Ion


class TestAtomicConfig:
    def test_presets(self):
        assert AtomicConfig.tiny().z_max == 8
        assert AtomicConfig.small().n_max == 10
        assert AtomicConfig.paper().n_max == 62

    @pytest.mark.parametrize("kwargs", [dict(n_max=0), dict(z_max=0), dict(z_max=32)])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            AtomicConfig(**kwargs)

    def test_frozen(self):
        cfg = AtomicConfig.tiny()
        with pytest.raises(AttributeError):
            cfg.n_max = 3


class TestAtomicDatabase:
    def test_full_ion_set_by_default(self, small_db):
        assert len(small_db.ions) == 496

    def test_tiny_scope(self, tiny_db):
        assert len(tiny_db.ions) == 36  # sum 1..8

    def test_ion_tuple_built_once(self, tiny_db):
        assert tiny_db.ions is tiny_db.ions

    def test_levels_cached(self, tiny_db):
        ion = tiny_db.ions[10]
        assert tiny_db.levels(ion) is tiny_db.levels(ion)

    def test_out_of_scope_ion_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.levels(Ion(z=26, charge=10))

    def test_total_levels_positive(self, tiny_db):
        assert tiny_db.total_levels() > len(tiny_db.ions)

    def test_n_levels_matches_structure(self, tiny_db):
        for ion in tiny_db.ions[:10]:
            assert tiny_db.n_levels(ion) == len(tiny_db.levels(ion))

    def test_validate_passes(self, tiny_db):
        tiny_db.validate()  # should not raise

    def test_paper_scale_level_counts(self):
        db = AtomicDatabase(AtomicConfig(n_max=62, z_max=2))
        helium_like = Ion(z=2, charge=2)
        assert db.n_levels(helium_like) == 1953  # "thousands of levels"

    def test_des_profile_integral_scale(self, des_db):
        """The simulation profile's per-point integral count ~2e8 (Fig. 1)."""
        total_levels = des_db.total_levels()
        integrals_per_point = total_levels * 50_000
        assert 1.5e8 < integrals_per_point < 3.0e8
