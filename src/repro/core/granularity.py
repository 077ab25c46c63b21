"""Task granularity: packing integrals into schedulable tasks.

Section III-B: "we defined a coarse-grained task, and such a task contains
tens of thousands RRC integrals... both the energy level and the ion can
be used to define the task scope."  Three policies are provided:

- ``ION`` (the paper's winner): one task per ion, all of its levels'
  bins accumulated on-device, one result transfer;
- ``LEVEL`` (the paper's fine-grained comparison): one task per energy
  level (~bins_per_level integrals each);
- ``ELEMENT`` (the paper's "too coarse" remark, built for the ablation
  bench): one task per element, covering all of its ions.

Level counts come from the real synthetic database, so task sizes are
genuinely inhomogeneous — with the default profile (n_max = 5,
bins_per_level = 5e4) one grid point carries ~2e8 integrals, the scale
the paper quotes in Fig. 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.atomic.ions import Ion
from repro.core.task import Task, TaskKind, task_cost

__all__ = [
    "Granularity",
    "WorkloadSpec",
    "build_tasks",
    "workload_database",
    "ELEMENT_KERNEL_EFFICIENCY",
]

#: Achieved fraction of peak device throughput for element-granularity
#: kernels (branch divergence over heterogeneous ions).
ELEMENT_KERNEL_EFFICIENCY: float = 0.5


class Granularity(enum.Enum):
    ION = "ion"
    LEVEL = "level"
    ELEMENT = "element"


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters describing one spectral-calculation workload.

    Defaults mirror the paper's test: 24 grid points, ion granularity,
    Simpson with 64 pieces, ~5e4 bins per level, and a level-count
    profile whose per-point total lands at ~2e8 integrals.
    """

    n_points: int = 24
    bins_per_level: int = 50_000
    granularity: Granularity = Granularity.ION
    method: str = "simpson"  # "simpson" | "romberg"
    pieces: int = 64
    k: int = 7
    db_config: AtomicConfig = field(default_factory=lambda: AtomicConfig(n_max=5))

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise ValueError("need at least one grid point")
        if self.bins_per_level < 1:
            raise ValueError("need at least one bin per level")
        if self.method not in ("simpson", "romberg"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.pieces < 0 or self.k < 0:
            raise ValueError("pieces and k must be non-negative")

    @property
    def evals_per_integral(self) -> int:
        """Integrand evaluations per bin integral on the GPU path."""
        if self.method == "simpson":
            return self.pieces + 1
        return 2**self.k + 1


def workload_database(spec: WorkloadSpec) -> AtomicDatabase:
    """The database supplying the level-count profile of a workload."""
    return AtomicDatabase(spec.db_config)


def build_tasks(
    spec: WorkloadSpec,
    db: Optional[AtomicDatabase] = None,
    gpu_execute_factory: Optional[Callable[[Ion, int], Callable[[], object]]] = None,
    cpu_execute_factory: Optional[Callable[[Ion, int], Callable[[], object]]] = None,
) -> list[Task]:
    """Materialize the task list of a workload.

    Parameters
    ----------
    gpu_execute_factory / cpu_execute_factory:
        Optional ``(ion, point_index) -> callable`` hooks attaching real
        numerics to each task (used by the accuracy experiments); cost-only
        simulation runs leave them ``None``.

    Tasks are ordered by (point, ion) — the order each MPI rank walks its
    sub-space in the paper.
    """
    db = db or workload_database(spec)
    bins, evals = spec.bins_per_level, spec.evals_per_integral
    level = task_cost(1, bins, evals)
    tasks: list[Task] = []
    for point in range(spec.n_points):
        if spec.granularity is Granularity.ELEMENT:
            by_element: dict[int, list[Ion]] = {}
            for ion in db.ions:
                by_element.setdefault(ion.z, []).append(ion)
            for z, ions in sorted(by_element.items()):
                n_levels = sum(db.n_levels(ion) for ion in ions)
                # Multi-ion kernels branch across ions: the paper's reason
                # element granularity is "not suitable to run on GPU".
                tasks.append(Task(
                    len(tasks), TaskKind.ELEMENT, point, label=f"pt{point}/Z{z}",
                    efficiency=ELEMENT_KERNEL_EFFICIENCY,
                    **task_cost(n_levels, bins, evals),
                ))
            continue
        for ion in db.ions:
            gpu_exec = gpu_execute_factory(ion, point) if gpu_execute_factory else None
            cpu_exec = cpu_execute_factory(ion, point) if cpu_execute_factory else None
            if spec.granularity is Granularity.ION:
                tasks.append(Task(
                    len(tasks), TaskKind.ION, point, label=f"pt{point}/{ion.name}",
                    execute=gpu_exec, cpu_execute=cpu_exec,
                    **task_cost(db.n_levels(ion), bins, evals),
                ))
                continue
            # Level tasks: the ion's payload rides its first level.
            for lvl in range(db.n_levels(ion)):
                tasks.append(Task(
                    len(tasks), TaskKind.LEVEL, point,
                    label=f"pt{point}/{ion.name}/L{lvl}",
                    execute=None if lvl else gpu_exec,
                    cpu_execute=None if lvl else cpu_exec,
                    **level,
                ))
    return tasks
