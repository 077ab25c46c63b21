"""Physical constants and unit conversions."""

import math

import numpy as np
import pytest

from repro import constants as c
from repro.physics.spectrum import EnergyGrid


class TestValues:
    def test_rydberg(self):
        assert c.RYDBERG_KEV == pytest.approx(13.6057e-3, rel=1e-4)

    def test_hc(self):
        assert c.HC_KEV_ANGSTROM == pytest.approx(12.398, rel=1e-4)

    def test_electron_rest_mass(self):
        assert c.ME_C2_KEV == pytest.approx(511.0, rel=1e-3)

    def test_boltzmann_consistency(self):
        """K_B in keV/K and erg/K must agree through KEV_ERG."""
        assert c.K_B_KEV * c.KEV_ERG == pytest.approx(c.K_B_ERG, rel=1e-9)


class TestConversions:
    """Wavelength <-> energy, as the grids convert them (through ``HC``)."""

    def test_wavelength_energy_roundtrip(self):
        grid = EnergyGrid.from_wavelength(1.0, 45.0, 44)
        assert c.HC_KEV_ANGSTROM / grid.edges[::-1] == pytest.approx(np.linspace(1.0, 45.0, 45))

    def test_known_anchor(self):
        """12.398 A <-> 1 keV."""
        grid = EnergyGrid.from_wavelength(12.39841984, 24.79683968, 1)
        assert grid.edges[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "fn",
        [lambda wl: EnergyGrid.from_wavelength(wl, 45.0, 4),
         lambda e: EnergyGrid(np.array([e, 2.0])).wavelength_centers],
        ids=["wavelength_to_energy_kev", "energy_to_wavelength_angstrom"],
    )
    def test_positive_input_required(self, fn):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.0)


class TestMaxwellianNorm:
    def test_scaling_with_temperature(self):
        """sqrt(1/(2 pi m kT)): halves when T quadruples... i.e. ~T^-1/2."""
        n1 = c.maxwellian_norm(1.0e6)
        n4 = c.maxwellian_norm(4.0e6)
        assert n1 / n4 == pytest.approx(2.0, rel=1e-12)

    def test_magnitude(self):
        # 1/sqrt(2 pi m_e k T) at 1e7 K in CGS ~ 1/sqrt(7.9e-37) ~ 1.1e18.
        val = c.maxwellian_norm(1.0e7)
        expected = 1.0 / math.sqrt(2.0 * math.pi * c.ME_G * c.K_B_ERG * 1.0e7)
        assert val == pytest.approx(expected, rel=1e-12)
