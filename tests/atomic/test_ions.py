"""Ion registry: the 496 recombining ions and their order."""

import pytest

from repro.atomic.ions import TOTAL_IONS, Ion, ion_registry


class TestIonRegistry:
    def test_total_count(self):
        assert TOTAL_IONS == 496
        assert len(ion_registry()) == 496

    def test_lexicographic_order(self):
        ions = ion_registry()
        keys = [(i.z, i.charge) for i in ions]
        assert keys == sorted(keys)

    def test_registry_cached(self):
        assert ion_registry() is ion_registry()


class TestIon:
    def test_names(self):
        assert Ion(z=8, charge=8).name == "O+8"
        assert Ion(z=26, charge=17).name == "Fe+17"

    @pytest.mark.parametrize("z,charge", [(8, 0), (8, 9), (0, 1), (32, 1)])
    def test_invalid_states_rejected(self, z, charge):
        with pytest.raises(ValueError):
            Ion(z=z, charge=charge)

    def test_ordering(self):
        assert Ion(z=2, charge=1) < Ion(z=2, charge=2) < Ion(z=3, charge=1)

    def test_element_link(self):
        assert Ion(z=26, charge=10).element.symbol == "Fe"
