"""Task records — the scheduling unit of the hybrid framework.

A :class:`Task` is one flat record: its ids and placement, the price of
its Algorithm 2 launch (integrals, evaluations per integral, PCIe bytes
each way, kernel efficiency) and of its CPU fallback, and optional
*real* execution callables, so the same record drives either a
cost-only simulation or a run that produces actual spectra.  The hybrid
runner, ``gpusim`` and the tracer read its fields and never build, copy
or mutate one.

Every producer — the paper workloads and the granularity study, NEI,
the bench harness and the service's family template — checks its own
inputs once a call; building a record checks nothing.
:func:`task_cost` prices a levels x bins launch for all of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["TaskKind", "Task", "task_cost"]

#: Host->device payload per level: binding energy, n, c_eff, g plus
#: bin-edge metadata.
BYTES_PER_LEVEL_PARAMS: int = 32
BYTES_PER_BIN_RESULT: int = 8  # float64 emissivity per energy bin


class TaskKind(enum.Enum):
    """What one task covers (the paper's granularity choices + NEI)."""

    ION = "ion"  # all levels x bins of one ion (coarse, Algorithm 2)
    LEVEL = "level"  # one level's bins (fine)
    ELEMENT = "element"  # all ions of one element (coarser; ablation)
    NEI_CHUNK = "nei"  # ten packed NEI timesteps (Table II)


@dataclass(slots=True, eq=False)
class Task:
    """One schedulable unit of work and the price of running it."""

    #: Unique, dense id (doubles as deterministic ordering key).
    task_id: int
    #: Granularity class of the task.
    kind: TaskKind
    #: Which parameter-space grid point the task belongs to.
    point_index: int = 0
    #: Trace span id of whatever caused this task (megabatch group span or
    #: request root); 0 = untraced.  The hybrid runner parents the task
    #: span — and through it every gpusim sub-span — under this id.
    trace_parent: int = 0
    #: Quadrature method for cost-model keying; request compilers stamp
    #: the rule ("simpson" | "romberg") so predictive scheduling queries
    #: the same (ion, method, width) keys the attribution ledger feeds.
    #: Empty for workloads with no rule axis (falls back to the kind).
    method: str = ""
    #: Human-readable tag, e.g. ``"pt3/Fe+16"``; its ion part keys the
    #: cost model.
    label: str = ""
    #: Energy levels contained in the task (prices the host-side prep).
    n_levels: int = 1
    #: One-dimensional bin integrals the launch covers (levels x bins for
    #: an Ion task, fewer after active-window pruning).
    n_integrals: int = 0
    #: Integrand evaluations per integral: ``pieces + 1`` for Simpson,
    #: ``2**k + 1`` for Romberg — the paper's cost knob.
    evals_per_integral: int = 1
    #: PCIe payloads: host->device parameters, device->host results.
    bytes_in: int = 0
    bytes_out: int = 0
    #: Fraction of the device's peak eval rate the launch achieves.
    #: Ion/Level kernels run the uniform Algorithm 2 loop (1.0); packing
    #: several ions into one kernel (Element granularity) introduces
    #: branch divergence — the paper: "the logic of the kernel will
    #: become more complex so that it is not suitable to run on GPU".
    efficiency: float = 1.0
    #: Evaluations pruned away relative to the dense levels x bins launch;
    #: a ledger entry only — ``total_evals`` counts the active work.
    evals_saved: int = 0
    #: CPU work per integral on the fallback path, in integrand-eval
    #: units; None = the cost model's QAGS default.  NEI tasks override it
    #: (LSODA steps cost differently than quadrature).
    cpu_evals_per_integral: Optional[int] = None
    #: Optional real device computation; its result is the payload the
    #: device hands back.  ``None`` for cost-only runs.
    execute: Optional[Callable[[], object]] = field(default=None, repr=False)
    #: Optional real CPU computation (the QAGS path) returning the same
    #: result type as ``execute``; ``None`` falls back to ``execute``.
    cpu_execute: Optional[Callable[[], object]] = field(default=None, repr=False)

    @property
    def total_evals(self) -> int:
        return self.n_integrals * self.evals_per_integral

    @property
    def kernel(self) -> "Task":
        """The record itself.  Kept only for the wall benchmark's
        ``gpusim`` probes (``benchmarks/wall/probes.py: _kernels``), which
        read ``task.kernel`` and change only with the benchmark; roadmap
        item 5 deletes it.  Nothing else may read it."""
        return self

    def run_cpu(self) -> object:
        """Execute the CPU-fallback numerics: ``cpu_execute`` (the scalar
        QAGS path) when set, else ``execute``; ``None`` for a cost-only
        task.  Either way the task is priced as QAGS."""
        run = self.execute if self.cpu_execute is None else self.cpu_execute
        return None if run is None else run()


def task_cost(n_levels, n_bins, evals_per_integral, n_active=None) -> dict:
    """The cost fields of one launch over ``n_levels`` levels x ``n_bins``
    bins, as :class:`Task` keywords.

    One parameter upload per level, but a *single* ``n_bins`` result
    array comes back — the accumulation-on-GPU trick the paper credits
    for the Ion granularity's win; a Level task is ``n_levels = 1``.
    ``n_active`` (active (level, bin) pairs after window pruning, in
    ``[0, levels x bins]``) replaces the dense count when given and the
    difference is booked as ``evals_saved``.  ``n_levels`` may be an
    integer array (a template's ions at once) when ``n_active`` is not
    given.
    """
    dense = n_levels * n_bins
    if n_active is None:
        n_active = dense
    elif not 0 <= n_active <= dense:
        raise ValueError(f"n_active must be in [0, {dense}], got {n_active}")
    return dict(
        n_levels=n_levels,
        n_integrals=n_active,
        evals_per_integral=evals_per_integral,
        bytes_in=n_levels * BYTES_PER_LEVEL_PARAMS,
        bytes_out=n_bins * BYTES_PER_BIN_RESULT,
        evals_saved=(dense - n_active) * evals_per_integral,
    )
