"""The complete Fig. 2 program over the message-passing layer.

:mod:`repro.core.hybrid` spawns worker generators directly — the right
tool for experiments.  This module instead reproduces the paper's actual
program structure end to end:

    main rank:  read input -> bcast config -> scatter point sub-spaces
    all ranks:  per-task loop { prep; SCHE-ALLOC; GPU or CPU; SCHE-FREE }
    main rank:  gather per-rank results -> aggregate

with every inter-rank interaction going through
:class:`~repro.cluster.mpi.MiniComm` collectives, exactly as the MPI
wrapper around APEC does.  It produces the same makespans as the direct
runner (the collectives cost ~nothing next to the tasks), which is itself
a cross-check of the two implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.cluster.mpi import MiniComm
from repro.cluster.simclock import SimClock
from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig
from repro.core.metrics import MetricsLedger, RunResult
from repro.core.scheduler import NO_DEVICE, SharedMemoryScheduler
from repro.core.task import Task
from repro.gpusim.device import SimulatedGPU

__all__ = ["MPIProgram"]


@dataclass
class _RankSummary:
    """What each rank reports back at the gather."""

    rank: int
    tasks_done: int
    gpu_tasks: int
    cpu_tasks: int
    spectra: dict[int, np.ndarray] = field(default_factory=dict)


class MPIProgram:
    """Run a task list as the paper's MPI program (main + ranks)."""

    def __init__(self, config: HybridConfig | None = None, latency: float = 0.0) -> None:
        self.config = config or HybridConfig()
        self.latency = latency

    def run(self, tasks: list[Task]) -> RunResult:
        cfg = self.config
        clock = SimClock()
        comm = MiniComm(clock, cfg.n_workers, latency=self.latency)
        metrics = MetricsLedger(cfg.n_gpus, cfg.max_queue_length)
        sched = SharedMemoryScheduler(
            cfg.n_gpus, cfg.max_queue_length, metrics, tie_break=cfg.tie_break
        )
        specs = cfg.devices or tuple(cfg.device for _ in range(cfg.n_gpus))
        gpus = [SimulatedGPU(clock, specs[d], index=d) for d in range(cfg.n_gpus)]
        summaries: dict[int, list[_RankSummary]] = {}

        for rank in range(cfg.n_workers):
            clock.spawn(
                self._rank_program(
                    rank, tasks, clock, comm, sched, gpus, metrics, summaries
                ),
                name=f"mpi-rank{rank}",
            )
        makespan = clock.run()
        metrics.finalize(makespan)
        sched.validate()

        gathered = summaries.get(0, [])
        spectra: dict[int, np.ndarray] = {}
        for summary in gathered:
            for point, arr in summary.spectra.items():
                if point in spectra:
                    spectra[point] = spectra[point] + arr
                else:
                    spectra[point] = arr
        return RunResult(
            makespan_s=makespan,
            metrics=metrics,
            n_tasks=len(tasks),
            mode="mpi-program",
            spectra=spectra,
            gpu_utilization=[g.utilization(makespan) for g in gpus],
        )

    # ------------------------------------------------------------------
    def _rank_program(
        self,
        rank: int,
        all_tasks: list[Task],
        clock: SimClock,
        comm: MiniComm,
        sched: SharedMemoryScheduler,
        gpus: list[SimulatedGPU],
        metrics: MetricsLedger,
        summaries: dict[int, list[_RankSummary]],
    ) -> Generator:
        cfg = self.config
        cost: CostModel = cfg.cost

        # --- main reads the input and broadcasts the run configuration.
        run_cfg = (
            {"max_queue_length": cfg.max_queue_length, "n_gpus": cfg.n_gpus}
            if rank == 0
            else None
        )
        run_cfg = yield from comm.bcast(run_cfg, root=0, rank=rank)
        assert run_cfg["max_queue_length"] == cfg.max_queue_length

        # --- main divides the space into equal sub-spaces and scatters.
        if rank == 0:
            chunks: Optional[list[list[Task]]] = [
                [] for _ in range(cfg.n_workers)
            ]
            for task in all_tasks:
                chunks[task.point_index % cfg.n_workers].append(task)
        else:
            chunks = None
        my_tasks: list[Task] = yield from comm.scatter(chunks, root=0, rank=rank)

        # --- startup skew, then the per-task loop of Fig. 2.
        yield rank * (cfg.stagger_s or 0.0)
        gpu_done = 0
        cpu_done = 0
        spectra: dict[int, np.ndarray] = {}
        counts: dict[int, int] = {}
        for task in my_tasks:
            counts[task.point_index] = counts.get(task.point_index, 0) + 1
        share = {p: cost.point_overhead_s / c for p, c in counts.items()}

        for task in my_tasks:
            yield cost.prep_s(task.n_levels) + share[task.point_index]
            device = sched.sche_alloc(clock.now)
            if device != NO_DEVICE:
                yield cost.submit_overhead_s
                done = gpus[device].submit(task)
                payload = yield done
                sched.sche_free(device, clock.now)
                gpu_done += 1
            else:
                yield cost.cpu_task_fallback_s(
                    task.n_integrals, task.cpu_evals_per_integral
                )
                payload = task.run_cpu()
                metrics.on_cpu_task()
                cpu_done += 1
            if payload is not None:
                arr = np.asarray(payload, dtype=np.float64)
                if task.point_index in spectra:
                    spectra[task.point_index] = spectra[task.point_index] + arr
                else:
                    spectra[task.point_index] = arr

        # --- gather results at the main rank.
        summary = _RankSummary(
            rank=rank,
            tasks_done=len(my_tasks),
            gpu_tasks=gpu_done,
            cpu_tasks=cpu_done,
            spectra=spectra,
        )
        gathered = yield from comm.gather(summary, root=0, rank=rank)
        if rank == 0:
            summaries[0] = gathered
