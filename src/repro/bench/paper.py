"""The paper's five simulated experiments, each configured once.

Figs. 3-5 and Tables I-II run the node simulator over a paper workload.
Each function here builds that workload, applies the experiment's
configuration (GPU counts, maximum queue length, cost model) and returns
the measured numbers.  ``repro fig3|fig4|fig5|table1|table2``, the
matching ``benchmarks/bench_*.py`` scripts and ``repro bench``'s ``nei``
case call them; each caller prints its own table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.bench.workloads import paper_level_workload, paper_workload, romberg_workload
from repro.core.hybrid import HybridConfig, HybridRunner

if TYPE_CHECKING:
    from repro.core.metrics import RunResult
    from repro.nei.runner import NEIWorkloadSpec

__all__ = ["GPUS", "MAXLENS", "fig3", "fig4", "fig5", "table1", "table2"]

#: The GPU counts of Figs. 3-5 and Table II, and the queue lengths of Figs. 4-5.
GPUS = (1, 2, 3, 4)
MAXLENS = (2, 4, 6, 8, 10, 12, 14)


def fig3(n_points: int = 24) -> dict[str, dict[int, float]]:
    """Fig. 3: speedup over serial APEC on 1-4 GPUs at ``maxlen`` 12,
    for Ion and for Level granularity."""
    ion = paper_workload(n_points)
    serial = HybridRunner().serial_time(ion)
    return {
        name: {
            g: serial / HybridRunner(HybridConfig(n_gpus=g, max_queue_length=12)).run(tasks).makespan_s
            for g in GPUS
        }
        for name, tasks in (("Ion", ion), ("Level", paper_level_workload(n_points)))
    }


def _queue_sweep(
    gpus: Sequence[int], maxlens: Sequence[int], read: Callable[[RunResult], float]
) -> dict[int, dict[int, float]]:
    """``read`` of the 24-point Ion run per GPU count and queue length."""
    tasks = paper_workload()
    return {
        g: {m: read(HybridRunner(HybridConfig(n_gpus=g, max_queue_length=m)).run(tasks)) for m in maxlens}
        for g in gpus
    }


def fig4(gpus: Sequence[int] = GPUS, maxlens: Sequence[int] = MAXLENS) -> dict[int, dict[int, float]]:
    """Fig. 4: total time (s) of the 24-point run per GPU count and queue length."""
    return _queue_sweep(gpus, maxlens, lambda res: res.makespan_s)


def fig5(gpus: Sequence[int] = GPUS) -> dict[int, dict[int, float]]:
    """Fig. 5: tasks run on the GPUs (%) per GPU count and queue length."""
    return _queue_sweep(gpus, MAXLENS, lambda res: res.metrics.gpu_task_ratio() * 100.0)


def table1(ks: Sequence[int] = (7, 9, 11, 13)) -> dict[int, tuple[int, float, float]]:
    """Table I: the Romberg ``2^k`` workload on 2 GPUs at ``maxlen`` 6.

    Per ``k``: tasks on the GPUs, their share (%), and the share of the
    run (%) during which GPU 0 held at least 3 tasks.
    """
    out = {}
    for k in ks:
        m = HybridRunner(HybridConfig(n_gpus=2, max_queue_length=6)).run(romberg_workload(k)).metrics
        out[k] = (int(m.gpu_tasks.sum()), m.gpu_task_ratio() * 100.0, m.load_at_least_ratio(3, 0) * 100.0)
    return out


def table2(
    gpus: Sequence[int] = GPUS, spec: Optional[NEIWorkloadSpec] = None
) -> tuple[RunResult, dict[int, RunResult]]:
    """Table II: the NEI workload on the 24-core MPI baseline and on
    ``gpus`` GPUs at ``maxlen`` 8; returns ``(mpi, {gpus: hybrid})``.

    NEI has no per-point I/O lump, so the point overhead is zero.
    """
    from repro.core.calibration import CostModel
    from repro.nei.runner import NEIWorkloadSpec, build_nei_tasks

    tasks = build_nei_tasks(spec or NEIWorkloadSpec())
    cost = CostModel(point_overhead_s=0.0)
    mpi = HybridRunner(HybridConfig(n_gpus=0, max_queue_length=8, cost=cost)).run_mpi_only(tasks)
    return mpi, {
        g: HybridRunner(HybridConfig(n_gpus=g, max_queue_length=8, cost=cost)).run(tasks) for g in gpus
    }
