"""The cost model: simulated seconds from paper-derived constants.

Every timing experiment in the paper is a function of a handful of cost
ratios.  We pin them to the paper's own published numbers, reconciled
across figures (the figures are mutually consistent to within a few
percent once read together):

- Fig. 3 and Fig. 4 agree that the serial run of the 24-point test space
  takes ~34,500 s (196.4 x 176 s = 311.4 x 111 s = 34.5 ks), i.e.
  ~1,440 s per grid point — the text's "nearly 800 s" refers to the
  integral portion alone of a smaller configuration.
- The profiled integral fraction is > 90 %.
- The 24-core MPI version achieves 13.5x, implying a memory-contention
  factor of 24 / 13.5 ~ 1.78 on concurrent CPU integration.
- Algorithm 1's CPU fallback calls QAGS with explicit (errabs, errrel),
  i.e. a stricter adaptive integration than the GPU's fixed Simpson-64;
  we model its extra subdivision work with ``cpu_fallback_penalty``.

The defaults below reproduce the paper's *shapes* (who wins, where the
Fig. 4 inflexion sits, how Table I degrades with k); EXPERIMENTS.md
records measured-vs-paper for every figure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

__all__ = ["CostModel", "measure_live_eval_rates"]


@dataclass(frozen=True)
class CostModel:
    """Host-side and CPU-side cost constants (seconds).

    Attributes
    ----------
    cpu_eval_s:
        Time of one integrand evaluation inside the serial CPU integrator
        (compiled-C speed on the paper's Xeon E5-2640).
    cpu_qags_evals_per_integral:
        Average integrand evaluations QAGS spends per bin integral.
    cpu_fallback_penalty:
        Multiplier on CPU fallback integration inside a *hybrid* run
        (stricter tolerances than the GPU path + cache contention).
    mpi_contention:
        Multiplier on CPU integration when all 24 ranks compute at once
        (the pure-MPI baseline); 24 / 13.5 from the paper.
    prep_fixed_s:
        Host-side work per task independent of its size (task assembly,
        scheduler bookkeeping, result registration).
    prep_per_level_s:
        Host-side work per *energy level* contained in a task (parameter
        marshalling, spectrum accumulation) — this is what makes Ion
        tasks cheaper per integral than Level tasks on the host.
    submit_overhead_s:
        Per-GPU-task host cost of the synchronous submit/return path
        (driver calls, pinned-buffer copies, blocking wait wakeup).
    point_overhead_s:
        Per-grid-point work outside the task loop (I/O, ion balance).
    """

    cpu_eval_s: float = 5.8e-8
    cpu_qags_evals_per_integral: int = 105
    cpu_fallback_penalty: float = 2.0
    mpi_contention: float = 1.83
    prep_fixed_s: float = 0.010
    prep_per_level_s: float = 0.00464
    submit_overhead_s: float = 0.0177
    point_overhead_s: float = 70.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0, got {value!r}")
        if min(self.cpu_eval_s, self.cpu_fallback_penalty, self.mpi_contention) == 0.0:
            raise ValueError("cost constants must be positive")

    def prep_s(self, n_levels: int) -> float:
        """Host-side preparation time of a task holding ``n_levels`` levels."""
        if n_levels < 0:
            raise ValueError("n_levels must be non-negative")
        return self.prep_fixed_s + n_levels * self.prep_per_level_s

    # ------------------------------------------------------------------
    # CPU-side task times
    # ------------------------------------------------------------------
    def cpu_integral_s(self, evals_per_integral: int | None = None) -> float:
        """Serial CPU time of one bin integral (QAGS unless overridden)."""
        evals = evals_per_integral or self.cpu_qags_evals_per_integral
        return evals * self.cpu_eval_s

    def cpu_task_serial_s(
        self, n_integrals: int, evals_per_integral: int | None = None
    ) -> float:
        """One task on an otherwise idle CPU core (the serial baseline)."""
        return n_integrals * self.cpu_integral_s(evals_per_integral)

    def cpu_task_mpi_s(
        self, n_integrals: int, evals_per_integral: int | None = None
    ) -> float:
        """One task on a fully loaded 24-rank node (pure-MPI baseline)."""
        return self.cpu_task_serial_s(n_integrals, evals_per_integral) * self.mpi_contention

    def cpu_task_fallback_s(
        self, n_integrals: int, evals_per_integral: int | None = None
    ) -> float:
        """Algorithm 1's CPU fallback inside a hybrid run."""
        return (
            self.cpu_task_serial_s(n_integrals, evals_per_integral)
            * self.cpu_fallback_penalty
        )

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """Calibration helper: replace selected constants."""
        return replace(self, **kwargs)


def measure_live_eval_rates(
    integrand: Callable, n_evals: int = 200_000
) -> dict[str, float]:
    """Micro-benchmark this machine's actual eval rates (diagnostics).

    Times the *real* vectorized batch kernel and a scalar Python loop on
    the supplied integrand, returning evals/second for each.  Not used by
    the simulation (which is calibrated to the paper's hardware), but
    reported by the benchmark harness so readers can see the live ratio
    on their own machine.
    """
    import numpy as np

    x = np.linspace(0.5, 1.5, n_evals)
    n_scalar = max(200, n_evals // 1000)
    xs = x[:n_scalar]

    def vectorized() -> None:
        integrand(x)

    def scalar() -> None:
        for v in xs:
            integrand(np.array([v]))

    def best_of_five(run: Callable[[], None]) -> float:
        # One untimed warm-up (first-touch page faults, ufunc set-up),
        # then the fastest of five: a rate is a property of the kernel,
        # and only the minimum sheds what a busy host adds to a sample.
        run()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_vec = best_of_five(vectorized)
    t_scalar = best_of_five(scalar)

    return {
        "vectorized_evals_per_s": n_evals / max(t_vec, 1e-12),
        "scalar_evals_per_s": n_scalar / max(t_scalar, 1e-12),
    }
