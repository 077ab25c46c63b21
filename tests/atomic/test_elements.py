"""Elements table: identity, abundances, the 496-ion arithmetic."""

from collections import Counter

import pytest

from repro.atomic.elements import ELEMENTS, MAX_Z, cosmic_abundance
from repro.atomic.ions import TOTAL_IONS, ion_registry


class TestElementsTable:
    def test_covers_one_through_31(self):
        assert set(ELEMENTS) == set(range(1, MAX_Z + 1))

    def test_symbols_unique(self):
        symbols = [e.symbol for e in ELEMENTS.values()]
        assert len(set(symbols)) == len(symbols)

    def test_known_symbols(self):
        assert ELEMENTS[1].symbol == "H"
        assert ELEMENTS[8].symbol == "O"
        assert ELEMENTS[26].symbol == "Fe"
        assert ELEMENTS[31].symbol == "Ga"

    def test_ion_counts_sum_to_496(self):
        """The paper's 'most abundant elements ... totally contain 496 ions'."""
        counts = Counter(ion.z for ion in ion_registry())
        assert counts == {z: z for z in ELEMENTS}  # charges 1..Z per element
        assert sum(counts.values()) == TOTAL_IONS == 496

    def test_hydrogen_reference_abundance(self):
        assert ELEMENTS[1].abundance == pytest.approx(1.0)

    def test_abundances_positive_and_below_hydrogen(self):
        for z in range(2, MAX_Z + 1):
            assert 0.0 < ELEMENTS[z].abundance < 1.0

    def test_helium_about_a_tenth(self):
        assert ELEMENTS[2].abundance == pytest.approx(0.0977, rel=0.05)

    def test_iron_more_abundant_than_manganese(self):
        # The odd-even abundance structure of nucleosynthesis.
        assert ELEMENTS[26].abundance > ELEMENTS[25].abundance


class TestCosmicAbundance:
    def test_matches_table(self):
        assert cosmic_abundance(8) == ELEMENTS[8].abundance

    @pytest.mark.parametrize("z", [0, -1, 32, 100])
    def test_out_of_range_rejected(self, z):
        with pytest.raises(ValueError):
            cosmic_abundance(z)


class TestElementDataclass:
    def test_frozen(self):
        with pytest.raises(AttributeError):
            ELEMENTS[1].z = 2
