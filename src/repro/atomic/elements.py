"""Elements Z = 1..31 and their cosmic abundances.

The paper counts "the most abundant elements in the universe which totally
contain 496 ions".  A recombining ion (Z, j+1) exists for every charge
state j+1 in 1..Z, so elements Z = 1..31 give exactly
sum_{Z=1}^{31} Z = 496 ions.

Abundances follow the Anders & Grevesse (1989) solar photosphere scale,
``log10(N_X / N_H) + 12``, with smooth interpolation for the elements that
table treats as trace; only relative magnitudes matter for spectral shape.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Element", "ELEMENTS", "MAX_Z", "cosmic_abundance"]

MAX_Z: int = 31

_SYMBOLS = [
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga",
]

_NAMES = [
    "hydrogen", "helium", "lithium", "beryllium", "boron", "carbon",
    "nitrogen", "oxygen", "fluorine", "neon", "sodium", "magnesium",
    "aluminium", "silicon", "phosphorus", "sulfur", "chlorine", "argon",
    "potassium", "calcium", "scandium", "titanium", "vanadium", "chromium",
    "manganese", "iron", "cobalt", "nickel", "copper", "zinc", "gallium",
]

# log10(N/N_H) + 12, Anders & Grevesse (1989)-like values.
_LOG_ABUND = [
    12.00, 10.99, 1.16, 1.15, 2.6, 8.56, 8.05, 8.93, 4.56, 8.09,
    6.33, 7.58, 6.47, 7.55, 5.45, 7.21, 5.5, 6.56, 5.12, 6.36,
    3.10, 4.99, 4.00, 5.67, 5.39, 7.67, 4.92, 6.25, 4.21, 4.60,
    3.13,
]


@dataclass(frozen=True)
class Element:
    """One chemical element.

    Attributes
    ----------
    z:
        Atomic number.
    symbol, name:
        Standard chemical symbol and lowercase English name.
    log_abundance:
        ``log10(N_X / N_H) + 12`` on the solar scale.
    """

    z: int
    symbol: str
    name: str
    log_abundance: float

    @property
    def abundance(self) -> float:
        """Number density relative to hydrogen, N_X / N_H."""
        return 10.0 ** (self.log_abundance - 12.0)


#: All elements, keyed by atomic number 1..31.
ELEMENTS: dict[int, Element] = {
    z: Element(
        z=z,
        symbol=_SYMBOLS[z - 1],
        name=_NAMES[z - 1],
        log_abundance=_LOG_ABUND[z - 1],
    )
    for z in range(1, MAX_Z + 1)
}


def cosmic_abundance(z: int) -> float:
    """Number density of element ``z`` relative to hydrogen."""
    try:
        return ELEMENTS[z].abundance
    except KeyError:
        raise ValueError(f"element Z={z} outside supported range 1..{MAX_Z}") from None
