"""Synthetic ATOMDB-like atomic database.

APEC draws level energies, recombination cross sections and ionization
balance data from the ATOMDB database, which is not redistributable here.
This package generates a *synthetic but physically shaped* replacement:

- elements Z = 1..31 whose recombining ions number exactly
  sum(Z) = 496, matching the paper's "496 ions";
- hydrogenic level structure with quantum-defect screening
  (:mod:`repro.atomic.levels`);
- Kramers photoionization cross sections mapped to recombination cross
  sections through the Milne relation (:mod:`repro.atomic.cross_sections`);
- Voronov-form collisional ionization and radiative+dielectronic
  recombination rate coefficients (:mod:`repro.atomic.rates`).

Everything is deterministic: the same configuration always produces the
same database, so experiments are exactly reproducible.
"""

from repro.atomic.elements import Element, ELEMENTS, cosmic_abundance
from repro.atomic.ions import Ion, ion_registry, TOTAL_IONS
from repro.atomic.levels import Level, LevelStructure, build_levels
from repro.atomic.cross_sections import (
    kramers_photoionization,
    milne_recombination,
)
from repro.atomic.rates import ionization_rate, recombination_rate
from repro.atomic.database import AtomicConfig, AtomicDatabase

__all__ = [
    "Element",
    "ELEMENTS",
    "cosmic_abundance",
    "Ion",
    "ion_registry",
    "TOTAL_IONS",
    "Level",
    "LevelStructure",
    "build_levels",
    "kramers_photoionization",
    "milne_recombination",
    "ionization_rate",
    "recombination_rate",
    "AtomicConfig",
    "AtomicDatabase",
]
