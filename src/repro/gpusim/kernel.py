"""Kernel descriptors: what a GPU task costs and (optionally) computes.

A :class:`KernelSpec` is the simulation-facing summary of one Algorithm 2
launch: how many integrand evaluations it performs, how many bytes cross
PCIe in each direction, and — when real numerics are wanted — a callable
producing the actual per-bin emission array.  It is the checked form of
the kernel half of the task protocol (:mod:`repro.core.task`): the device
prices and runs any object with its fields and ``total_evals``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["KernelSpec"]

#: Host->device payload per integration task: per-level parameters
#: (binding energy, n, c_eff, g) plus bin-edge metadata.
BYTES_PER_LEVEL_PARAMS: int = 32
BYTES_PER_BIN_RESULT: int = 8  # float64 emissivity per energy bin


@dataclass(frozen=True)
class KernelSpec:
    """One GPU kernel launch, cost-wise.

    Attributes
    ----------
    n_integrals:
        Number of one-dimensional bin integrals the launch covers
        (levels x bins for an Ion task; bins for a Level task).
    evals_per_integral:
        Integrand evaluations per integral: ``pieces + 1`` for Simpson,
        ``2**k + 1`` for Romberg — the paper's cost knob.
    bytes_in, bytes_out:
        PCIe payloads (host->device parameters, device->host results).
    execute:
        Optional zero-argument callable performing the real computation;
        ``None`` for cost-only simulation runs.
    efficiency:
        Fraction of the device's peak eval rate this kernel achieves.
        Ion/Level kernels run the uniform Algorithm 2 loop (1.0); packing
        several ions into one kernel (Element granularity) introduces
        branch divergence and register pressure — the paper: "the logic of
        the kernel will become more complex so that it is not suitable to
        run on GPU".
    evals_saved:
        Integrand evaluations pruned away relative to the dense
        levels x bins launch (active-window pruning); purely a ledger
        entry — ``total_evals`` already counts only the active work.
    label:
        Diagnostic tag (e.g. the ion name).
    """

    n_integrals: int
    evals_per_integral: int
    bytes_in: int = 0
    bytes_out: int = 0
    execute: Optional[Callable[[], object]] = field(default=None, compare=False)
    efficiency: float = 1.0
    evals_saved: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_integrals < 0:
            raise ValueError("n_integrals must be non-negative")
        if self.evals_saved < 0:
            raise ValueError("evals_saved must be non-negative")
        if self.evals_per_integral < 1:
            raise ValueError("evals_per_integral must be >= 1")
        if self.bytes_in < 0 or self.bytes_out < 0:
            raise ValueError("byte counts must be non-negative")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def total_evals(self) -> int:
        return self.n_integrals * self.evals_per_integral

    @classmethod
    def for_ion_task(
        cls,
        n_levels: int,
        n_bins: int,
        evals_per_integral: int,
        label: str = "",
        execute: Optional[Callable[[], object]] = None,
        efficiency: float = 1.0,
        n_active: Optional[int] = None,
    ) -> "KernelSpec":
        """Coarse-grained Ion task: all levels accumulated on-device.

        One parameter upload per level, but a *single* n_bins result array
        comes back — the accumulation-on-GPU trick the paper credits for
        the Ion granularity's win.

        ``n_active`` (active (level, bin) pairs after window pruning)
        replaces the dense ``n_levels * n_bins`` integral count when
        given; the difference is booked as ``evals_saved`` so schedulers
        and ledgers can report how much work the pruning removed.
        """
        dense = n_levels * n_bins
        if n_active is None:
            n_active = dense
        if not 0 <= n_active <= dense:
            raise ValueError(
                f"n_active must be in [0, {dense}], got {n_active}"
            )
        return cls(
            n_integrals=n_active,
            evals_per_integral=evals_per_integral,
            bytes_in=n_levels * BYTES_PER_LEVEL_PARAMS,
            bytes_out=n_bins * BYTES_PER_BIN_RESULT,
            execute=execute,
            efficiency=efficiency,
            evals_saved=(dense - n_active) * evals_per_integral,
            label=label,
        )

    @classmethod
    def for_level_task(
        cls,
        n_bins: int,
        evals_per_integral: int,
        label: str = "",
        execute: Optional[Callable[[], object]] = None,
    ) -> "KernelSpec":
        """Fine-grained Level task: one level's bins, one result transfer."""
        return cls(
            n_integrals=n_bins,
            evals_per_integral=evals_per_integral,
            bytes_in=BYTES_PER_LEVEL_PARAMS,
            bytes_out=n_bins * BYTES_PER_BIN_RESULT,
            execute=execute,
            label=label,
        )
