"""Task descriptors — the scheduling unit of the hybrid framework.

A task bundles (a) the GPU kernel it would launch, (b) enough information
to price its CPU fallback, and (c) optional *real* execution callables so
the same task object can drive either a cost-only simulation or a run
that produces actual spectra.

**The task protocol** is the fields :class:`Task` declares plus
``cost_key_method``, ``n_integrals`` and ``run_cpu()``, and on
``task.kernel`` the fields :class:`~repro.gpusim.kernel.KernelSpec`
declares plus ``total_evals``.  The hybrid runner, ``gpusim`` and the
tracer read those names and nothing else; they never build, copy or
mutate a task, so any object answering them runs on the one runner path.
``Task`` and ``KernelSpec`` are the checked dataclasses the paper
workloads, the granularity study and NEI build.  The service's compiled
Ion tasks are ``__slots__`` views over their family's template
(``repro.service.requests``), checked once per template or call, not per
task; ``MultiNodeRunner``'s ``dataclasses.replace`` needs a ``Task``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.gpusim.kernel import KernelSpec

__all__ = ["TaskKind", "Task"]


class TaskKind(enum.Enum):
    """What one task covers (the paper's granularity choices + NEI)."""

    ION = "ion"  # all levels x bins of one ion (coarse, Algorithm 2)
    LEVEL = "level"  # one level's bins (fine)
    ELEMENT = "element"  # all ions of one element (coarser; ablation)
    NEI_CHUNK = "nei"  # ten packed NEI timesteps (Table II)


@dataclass
class Task:
    """One schedulable unit of work, checked at construction."""

    #: Unique, dense id (doubles as deterministic ordering key).
    task_id: int
    #: Granularity class of the task.
    kind: TaskKind
    #: GPU cost/compute descriptor.
    kernel: KernelSpec
    #: Which parameter-space grid point the task belongs to.
    point_index: int = 0
    #: Energy levels contained in the task (prices the host-side prep).
    n_levels: int = 1
    #: CPU work per integral on the fallback path, in integrand-eval
    #: units; None = the cost model's QAGS default.  NEI tasks override it
    #: (LSODA steps cost differently than quadrature).
    cpu_evals_per_integral: Optional[int] = None
    #: Optional real CPU computation (the QAGS path) returning the same
    #: result type as ``kernel.execute``.
    cpu_execute: Optional[Callable[[], object]] = field(default=None, repr=False)
    #: Human-readable tag, e.g. ``"pt3/Fe+16"``.
    label: str = ""
    #: Trace span id of whatever caused this task (megabatch group span or
    #: request root); 0 = untraced.  The hybrid runner parents the task
    #: span — and through it every gpusim sub-span — under this id.
    trace_parent: int = 0
    #: Quadrature method for cost-model keying; request compilers stamp
    #: the rule ("simpson" | "romberg") so predictive scheduling queries
    #: the same (ion, method, width) keys the attribution ledger feeds.
    #: Empty for workloads with no rule axis (falls back to the kind).
    method: str = ""

    @property
    def cost_key_method(self) -> str:
        """The method axis of this task's cost-model key."""
        return self.method or self.kind.value

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")
        if self.n_levels < 0:
            raise ValueError("n_levels must be non-negative")

    @property
    def n_integrals(self) -> int:
        return self.kernel.n_integrals

    def run_cpu(self) -> object:
        """Execute the real CPU-fallback numerics (scalar QAGS path)."""
        if self.cpu_execute is None:
            return None
        return self.cpu_execute()
