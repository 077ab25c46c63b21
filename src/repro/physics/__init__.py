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

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.physics.rrc": (
        "RRCLevelParams", "rrc_integrand", "make_level_integrand", "analytic_bin_integral",
        "rrc_prefactor",
    ),
    "repro.physics.spectrum": ("EnergyGrid", "Spectrum"),
    "repro.physics.ionbalance": ("cie_fractions", "ion_density"),
    "repro.physics.apec": (
        "GridPoint", "SerialAPEC", "ion_emissivity_batched", "ion_emissivity_scalar",
    ),
    "repro.physics.windows": ("LevelWindows", "level_windows", "tail_cutoff_kev"),
})
