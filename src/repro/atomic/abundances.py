"""Elemental abundance sets — APEC's metallicity knob.

Real APEC exposes per-element abundances as fit parameters (cluster gas
is rarely solar).  An :class:`AbundanceSet` scales the solar table: a
global ``metallicity`` multiplies every element heavier than helium, and
``overrides`` pin individual elements to absolute N_X/N_H values.  The
default (solar, metallicity 1) reproduces the original behaviour
everywhere, so the plumbing is invisible until someone turns the knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.atomic.elements import MAX_Z, cosmic_abundance

__all__ = ["AbundanceSet", "SOLAR"]


@dataclass(frozen=True)
class AbundanceSet:
    """Abundances relative to hydrogen.

    Attributes
    ----------
    metallicity:
        Multiplier on the solar abundance of every element with Z > 2
        (H and He are primordial and not scaled).
    overrides:
        Absolute N_X/N_H values for specific elements; takes precedence
        over the metallicity scaling.
    """

    metallicity: float = 1.0
    overrides: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.metallicity < 0.0:
            raise ValueError("metallicity must be non-negative")
        for z, value in self.overrides.items():
            if not 1 <= z <= MAX_Z:
                raise ValueError(f"override for Z={z} outside 1..{MAX_Z}")
            if value < 0.0:
                raise ValueError(f"override for Z={z} must be non-negative")

    def of(self, z: int) -> float:
        """N_X / N_H for element ``z`` under this abundance set."""
        if z in self.overrides:
            return float(self.overrides[z])
        solar = cosmic_abundance(z)
        if z <= 2:
            return solar
        return solar * self.metallicity


#: The default: solar composition.
SOLAR = AbundanceSet()
