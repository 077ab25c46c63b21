"""Abundance sets and their plumbing through the emission components."""

import numpy as np
import pytest

from repro.atomic.abundances import SOLAR, AbundanceSet
from repro.atomic.elements import cosmic_abundance
from repro.atomic.ions import Ion


class TestAbundanceSet:
    def test_solar_default(self):
        for z in (1, 2, 8, 26):
            assert SOLAR.of(z) == cosmic_abundance(z)

    def test_metallicity_scales_metals_only(self):
        half = AbundanceSet(metallicity=0.5)
        assert half.of(1) == cosmic_abundance(1)  # H untouched
        assert half.of(2) == cosmic_abundance(2)  # He untouched
        assert half.of(26) == pytest.approx(0.5 * cosmic_abundance(26))

    def test_override_beats_metallicity(self):
        a = AbundanceSet(metallicity=0.5, overrides={26: 1.0e-3})
        assert a.of(26) == 1.0e-3
        assert a.of(14) == pytest.approx(0.5 * cosmic_abundance(14))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(metallicity=-0.1),
            dict(overrides={0: 1.0}),
            dict(overrides={8: -1.0}),
            dict(overrides={99: 1.0}),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AbundanceSet(**kwargs)


class TestAbundancePlumbing:
    def test_ion_density_scales(self):
        from repro.physics.ionbalance import ion_density

        ion = Ion(z=26, charge=26)
        solar = ion_density(ion, 1e8, 1.0)
        doubled = ion_density(
            ion, 1e8, 1.0, abundances=AbundanceSet(metallicity=2.0)
        )
        assert doubled == pytest.approx(2.0 * solar)

    def test_rrc_emission_scales_linearly(self, tiny_db, hot_point, grid_small):
        from repro.physics.apec import ion_emissivity_batched

        ion = Ion(z=8, charge=8)
        solar = ion_emissivity_batched(tiny_db, ion, hot_point, grid_small)
        tenth = ion_emissivity_batched(
            tiny_db, ion, hot_point, grid_small,
            abundances=AbundanceSet(metallicity=0.1),
        )
        nz = solar > 0
        assert np.allclose(tenth[nz] / solar[nz], 0.1, rtol=1e-12)

    def test_hydrogen_unaffected_by_metallicity(self, tiny_db, grid_small):
        from repro.physics.apec import GridPoint, ion_emissivity_batched

        pt = GridPoint(temperature_k=3e5, ne_cm3=1.0)  # H+ populated
        ion = Ion(z=1, charge=1)
        solar = ion_emissivity_batched(tiny_db, ion, pt, grid_small)
        poor = ion_emissivity_batched(
            tiny_db, ion, pt, grid_small, abundances=AbundanceSet(metallicity=0.1)
        )
        assert np.array_equal(solar, poor)

    def test_serial_apec_metallicity(self, tiny_db, hot_point, grid_small):
        from repro.physics.apec import SerialAPEC

        solar = SerialAPEC(tiny_db, grid_small, method="simpson-batch").compute(
            hot_point
        )
        poor = SerialAPEC(
            tiny_db, grid_small, method="simpson-batch",
            abundances=AbundanceSet(metallicity=0.3),
        ).compute(hot_point)
        # Metals dominate this window, so total drops substantially —
        # but not by the full 0.3 factor (H/He contribute too).
        ratio = poor.total() / solar.total()
        assert 0.29 < ratio < 1.0

    def test_brems_tracks_z_squared_weighting(self):
        from repro.physics.apec import GridPoint
        from repro.physics.brems import brems_spectral_density

        pt = GridPoint(temperature_k=1e7, ne_cm3=1.0)
        e = np.array([1.0])
        solar = brems_spectral_density(e, pt, z_max=8)[0]
        rich = brems_spectral_density(
            e, pt, z_max=8, abundances=AbundanceSet(metallicity=3.0)
        )[0]
        assert rich > solar  # more metals, more Z^2
