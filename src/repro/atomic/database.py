"""Assembly and caching of the synthetic atomic database.

:class:`AtomicDatabase` is the single entry point the spectral code uses:
it owns the ion registry, builds (and memoizes) per-ion level structures,
and exposes validation so tests can assert database-wide invariants in one
call.  Two presets bracket the scale:

- :meth:`AtomicConfig.small` — n_max = 10 (55 levels max/ion), for tests
  and quick examples;
- :meth:`AtomicConfig.paper` — n_max = 62, giving the "thousands [of]
  energy levels in each ion" of the paper (1953 for a full ladder).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atomic.elements import MAX_Z
from repro.atomic.ions import Ion, ion_registry
from repro.atomic.levels import LevelStructure, build_levels

__all__ = ["AtomicConfig", "AtomicDatabase"]


@dataclass(frozen=True)
class AtomicConfig:
    """Size knobs of the synthetic database.

    Attributes
    ----------
    n_max:
        Principal-quantum-number cutoff of the hydrogenic ladders.
    z_max:
        Highest element included (default all 31 -> 496 ions); lower values
        shrink the ion set for unit tests (e.g. z_max=8 -> 36 ions).
    """

    n_max: int = 10
    z_max: int = MAX_Z

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 1 <= self.z_max <= MAX_Z:
            raise ValueError(f"z_max must be 1..{MAX_Z}, got {self.z_max}")

    @classmethod
    def small(cls) -> "AtomicConfig":
        """Test-scale database: full ion set, short level ladders."""
        return cls(n_max=10)

    @classmethod
    def tiny(cls) -> "AtomicConfig":
        """Minimal database for fast unit tests: 36 ions, tiny ladders."""
        return cls(n_max=4, z_max=8)

    @classmethod
    def paper(cls) -> "AtomicConfig":
        """Paper-scale database: thousands of levels per ion."""
        return cls(n_max=62)


class AtomicDatabase:
    """Memoizing facade over the synthetic atomic data.

    Thread-safety note: construction of a level structure is deterministic
    and idempotent, so the worst a race can do is duplicate work; the cache
    dict write is atomic under the GIL.
    """

    def __init__(self, config: AtomicConfig | None = None) -> None:
        self.config = config or AtomicConfig.small()
        self._levels: dict[Ion, LevelStructure] = {}
        # The config is frozen, so the scope never changes after this.
        self._ions = tuple(i for i in ion_registry() if i.z <= self.config.z_max)

    @property
    def ions(self) -> tuple[Ion, ...]:
        """All ions in scope, (Z, charge) ordered."""
        return self._ions

    def levels(self, ion: Ion) -> LevelStructure:
        """Level structure of the recombined product of ``ion`` (cached)."""
        if ion.z > self.config.z_max:
            raise ValueError(
                f"{ion.name} outside configured z_max={self.config.z_max}"
            )
        cached = self._levels.get(ion)
        if cached is None:
            cached = build_levels(ion.z, ion.charge, self.config.n_max)
            self._levels[ion] = cached
        return cached

    def n_levels(self, ion: Ion) -> int:
        return len(self.levels(ion))

    def total_levels(self) -> int:
        """Sum of level counts over every ion in scope."""
        return sum(self.n_levels(ion) for ion in self.ions)

    def validate(self) -> None:
        """Database-wide invariant checks; raises ``ValueError`` on breach.

        - every binding energy positive and finite;
        - within an ion, ground state (n=1, l=0) is the most bound level;
        - energies weakly decrease along the n-ladder at fixed l;
        - degeneracies equal 2(2l+1).
        """
        for ion in self.ions:
            ls = self.levels(ion)
            e = ls.energy_kev
            if not np.all(np.isfinite(e)) or np.any(e <= 0.0):
                raise ValueError(f"{ion.name}: invalid binding energies")
            if e.argmax() != 0:
                raise ValueError(f"{ion.name}: ground state is not most bound")
            for l in np.unique(ls.l_arr):
                sel = ls.l_arr == l
                series = e[sel][np.argsort(ls.n_arr[sel])]
                if np.any(np.diff(series) > 0.0):
                    raise ValueError(
                        f"{ion.name}: binding energy not decreasing in n at l={l}"
                    )
            if np.any(ls.degeneracy != 2 * (2 * ls.l_arr + 1)):
                raise ValueError(f"{ion.name}: bad degeneracies")
