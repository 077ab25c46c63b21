"""RRC spectral physics — the APEC role of the reproduction.

- :mod:`repro.physics.rrc` — Eq. (1): the RRC integrand dP/dE and the
  per-level emissivity machinery.
- :mod:`repro.physics.ionbalance` — collisional ionization equilibrium
  (CIE) ion fractions that set n_(Z, j+1).
- :mod:`repro.physics.spectrum` — energy-bin grids and the Spectrum
  container (Eq. 2 output).
- :mod:`repro.physics.apec` — the serial APEC-style calculator: the three
  nested loops of Fig. 1, plus the batched per-ion emissivity that GPU
  tasks execute.
- :mod:`repro.physics.windows` — per-level active bin windows with the
  accuracy-budgeted tail cutoff that prunes the batch kernels.
- :mod:`repro.physics.rrc_kernel` — the one Simpson RRC kernel behind the
  per-ion path and the compiled plans, dense and pruned.
"""

from repro.physics.rrc import (
    RRCLevelParams,
    rrc_integrand,
    make_level_integrand,
    analytic_bin_integral,
    rrc_prefactor,
)
from repro.physics.spectrum import EnergyGrid, Spectrum
from repro.physics.ionbalance import cie_fractions, ion_density
from repro.physics.apec import (
    GridPoint,
    SerialAPEC,
    ion_emissivity_batched,
    ion_emissivity_scalar,
)
from repro.physics.windows import LevelWindows, level_windows, tail_cutoff_kev

__all__ = [
    "LevelWindows",
    "level_windows",
    "tail_cutoff_kev",
    "RRCLevelParams",
    "rrc_integrand",
    "make_level_integrand",
    "analytic_bin_integral",
    "rrc_prefactor",
    "EnergyGrid",
    "Spectrum",
    "cie_fractions",
    "ion_density",
    "GridPoint",
    "SerialAPEC",
    "ion_emissivity_batched",
    "ion_emissivity_scalar",
]
