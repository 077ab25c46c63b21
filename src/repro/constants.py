"""Physical constants used throughout the spectral calculation.

Values follow CODATA 2018 in CGS-flavoured units common in X-ray
astrophysics: energies in keV, temperatures in K, densities in cm^-3.
Equation (1) of the paper mixes Boltzmann factors (kT), the electron
mass and recombination cross sections; keeping a single constants
module avoids unit drift between the serial and batched code paths.
"""

from __future__ import annotations

import math

#: Boltzmann constant in keV / K.
K_B_KEV: float = 8.617333262e-8

#: Electron rest mass energy m_e c^2 in keV.
ME_C2_KEV: float = 510.99895

#: Speed of light in cm / s.
C_CGS: float = 2.99792458e10

#: Electron mass in grams (used in the sqrt(1/(2 pi m_e kT)) factor).
ME_G: float = 9.1093837015e-28

#: Boltzmann constant in erg / K.
K_B_ERG: float = 1.380649e-16

#: 1 keV in erg.
KEV_ERG: float = 1.602176634e-9

#: Rydberg energy (hydrogen ionization potential) in keV.
RYDBERG_KEV: float = 13.605693122994e-3

#: Thomson cross section in cm^2 (scale for synthetic cross sections).
SIGMA_THOMSON_CM2: float = 6.6524587321e-25

#: Fine-structure constant.
ALPHA_FS: float = 7.2973525693e-3

#: Planck constant times c, in keV * Angstrom (E[keV] = HC_KEV_A / lambda[A]).
HC_KEV_ANGSTROM: float = 12.39841984

#: Kramers photoionization cross-section scale at threshold for hydrogen
#: ground state, in cm^2 (sigma_0 ~ 6.30e-18 cm^2).
SIGMA_KRAMERS_CM2: float = 6.30e-18


def maxwellian_norm(temperature_k: float) -> float:
    """The sqrt(1 / (2 pi m_e k T)) factor of Eq. (1).

    Evaluated in CGS so the emitted-power units match the serial APEC
    convention; the spectral *shape* (what all experiments compare) is
    independent of this overall scale.
    """
    kt_erg = K_B_ERG * temperature_k
    return math.sqrt(1.0 / (2.0 * math.pi * ME_G * kt_erg))
