"""The three-dimensional parameter space of Fig. 1.

"There is a three-dimensional parameter space: temperature, density and
time.  The parameter space is often given by a result of astrophysical
simulation or a configuration file."  This module provides that object:
axes, grid-point enumeration, equal-subspace partitioning (what the main
program hands to MPI ranks), and loading from a configuration mapping or
from synthetic "simulation output" (a tracer-particle history).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.physics.apec import GridPoint

__all__ = ["Axis", "ParameterSpace"]


@dataclass(frozen=True)
class Axis:
    """One axis of the space: a name and its sampled values."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.name!r} needs at least one value")
        if any(not np.isfinite(v) for v in self.values):
            raise ValueError(f"axis {self.name!r} has non-finite values")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def linear(cls, name: str, lo: float, hi: float, n: int) -> "Axis":
        if n < 1:
            raise ValueError("need at least one sample")
        return cls(name, tuple(np.linspace(lo, hi, n)))

    @classmethod
    def log(cls, name: str, lo: float, hi: float, n: int) -> "Axis":
        if lo <= 0.0 or hi <= 0.0:
            raise ValueError("log axis needs positive bounds")
        if n < 1:
            raise ValueError("need at least one sample")
        return cls(name, tuple(np.logspace(np.log10(lo), np.log10(hi), n)))


@dataclass(frozen=True)
class ParameterSpace:
    """A (temperature, density, time) grid of :class:`GridPoint` s.

    Iteration order is C-order over (temperature, density, time) — the
    stable point indexing every task list and result dict refers to.
    """

    temperature: Axis
    density: Axis
    time: Axis = field(
        default_factory=lambda: Axis(name="time", values=(0.0,))
    )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.temperature), len(self.density), len(self.time))

    @property
    def n_points(self) -> int:
        t, d, s = self.shape
        return t * d * s

    def __len__(self) -> int:
        return self.n_points

    def __iter__(self) -> Iterator[GridPoint]:
        for t in self.temperature.values:
            for d in self.density.values:
                for s in self.time.values:
                    yield GridPoint(temperature_k=t, ne_cm3=d, time_s=s)

    def point(self, index: int) -> GridPoint:
        """The grid point with flat index ``index`` (C-order)."""
        if not 0 <= index < self.n_points:
            raise IndexError(
                f"point index {index} outside 0..{self.n_points - 1}"
            )
        _nt, nd, ns = self.shape
        it, rem = divmod(index, nd * ns)
        id_, is_ = divmod(rem, ns)
        return GridPoint(
            temperature_k=self.temperature.values[it],
            ne_cm3=self.density.values[id_],
            time_s=self.time.values[is_],
        )

    def partition(self, n_ranks: int) -> list[list[int]]:
        """Equal sub-spaces for ``n_ranks`` workers (the paper's split).

        Round-robin on the flat index, so every rank receives an equal
        share to within one point.
        """
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        parts: list[list[int]] = [[] for _ in range(n_ranks)]
        for i in range(self.n_points):
            parts[i % n_ranks].append(i)
        return parts

    # ------------------------------------------------------------------
    # Construction from external descriptions
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: Mapping[str, object]) -> "ParameterSpace":
        """Build from a configuration mapping.

        Expected keys: ``temperature``, ``density`` and optionally
        ``time``, each one of

        - a sequence of explicit values, or
        - a mapping ``{"lo": .., "hi": .., "n": .., "spacing": "linear"|"log"}``.
        """

        def axis(name: str, spec: object) -> Axis:
            if isinstance(spec, Mapping):
                spacing = spec.get("spacing", "linear")
                ctor = Axis.log if spacing == "log" else Axis.linear
                if spacing not in ("linear", "log"):
                    raise ValueError(f"unknown spacing {spacing!r} for {name}")
                return ctor(name, float(spec["lo"]), float(spec["hi"]), int(spec["n"]))
            if isinstance(spec, Sequence):
                return Axis(name, tuple(float(v) for v in spec))
            raise TypeError(f"cannot build axis {name!r} from {type(spec)!r}")

        if "temperature" not in config or "density" not in config:
            raise ValueError("config needs 'temperature' and 'density'")
        time_spec = config.get("time", (0.0,))
        return cls(
            temperature=axis("temperature", config["temperature"]),
            density=axis("density", config["density"]),
            time=axis("time", time_spec),
        )

    @classmethod
    def from_simulation(
        cls,
        temperatures_k: np.ndarray,
        densities_cm3: np.ndarray,
        times_s: np.ndarray,
    ) -> "ParameterSpace":
        """Build from tracer-history arrays (a simulation's output).

        Values are deduplicated and sorted per axis; the space is the
        cartesian grid spanned by the distinct samples — how post-
        processing pipelines rasterize tracer data before spectral
        synthesis.
        """
        return cls(
            temperature=Axis("temperature", tuple(np.unique(temperatures_k))),
            density=Axis("density", tuple(np.unique(densities_cm3))),
            time=Axis("time", tuple(np.unique(times_s))),
        )
