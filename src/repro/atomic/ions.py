"""The 496-ion registry.

A radiative recombination event is ``(Z, j+1) + e- -> (Z, j) + photon``.
The *recombining* ion is identified by its element ``Z`` and its charge
``c = j+1`` in 1..Z (from singly ionized up to the bare nucleus).  The
total over elements 1..31 is exactly 496, the count quoted in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.atomic.elements import ELEMENTS, MAX_Z, Element

__all__ = ["Ion", "ion_registry", "TOTAL_IONS"]

#: sum_{Z=1}^{31} Z — the paper's "496 ions".
TOTAL_IONS: int = sum(range(1, MAX_Z + 1))


@dataclass(frozen=True, order=True)
class Ion:
    """One recombining ion (Z, j+1).

    Attributes
    ----------
    z:
        Atomic number of the element.
    charge:
        Charge of the recombining ion, ``c = j+1`` in 1..Z.  ``charge == z``
        is the bare nucleus; the recombined product has charge ``c - 1``.
    """

    z: int
    charge: int

    def __post_init__(self) -> None:
        if self.z < 1 or self.z > MAX_Z:
            raise ValueError(f"Z={self.z} outside 1..{MAX_Z}")
        if self.charge < 1 or self.charge > self.z:
            raise ValueError(
                f"charge {self.charge} invalid for Z={self.z}; must be 1..{self.z}"
            )

    @property
    def element(self) -> Element:
        return ELEMENTS[self.z]

    @property
    def name(self) -> str:
        """Spectroscopic-style name, e.g. ``O+7`` for hydrogen-like oxygen."""
        return f"{self.element.symbol}+{self.charge}"

    @property
    def index(self) -> int:
        """Stable 0-based index in the global 496-ion ordering."""
        return self.z * (self.z - 1) // 2 + (self.charge - 1)


@lru_cache(maxsize=1)
def ion_registry() -> tuple[Ion, ...]:
    """All 496 ions in (Z, charge) lexicographic order."""
    ions = tuple(
        Ion(z=z, charge=c) for z in range(1, MAX_Z + 1) for c in range(1, z + 1)
    )
    assert len(ions) == TOTAL_IONS
    return ions
