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

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.atomic.elements": ("Element", "ELEMENTS", "cosmic_abundance"),
    "repro.atomic.ions": ("Ion", "ion_registry", "TOTAL_IONS"),
    "repro.atomic.levels": ("Level", "LevelStructure", "build_levels"),
    "repro.atomic.cross_sections": ("kramers_photoionization", "milne_recombination"),
    "repro.atomic.rates": ("ionization_rate", "recombination_rate"),
    "repro.atomic.database": ("AtomicConfig", "AtomicDatabase"),
})
