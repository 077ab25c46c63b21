"""The hybrid NEI workload (Table II).

The paper's adaptability test: one million grid points, 1000 timesteps
each, "every ten time-dependent calculations are packed into one task for
reducing the frequency of data copy between host and device", maximum
queue length 8, 24 MPI ranks, 1-4 GPUs; speedups are quoted against the
pure-MPI 24-core run.

Cost mapping: the work unit of an NEI task is one *timestep of one grid
point* (a dozen element systems advanced once).  On the GPU a fixed-step
implicit kernel spends ``gpu_units_per_step`` evaluation units per step;
the CPU's adaptive LSODA-style solver spends ``cpu_units_per_step``.  The
defaults put one 10-point task at ~30 ms of GPU service and ~2 s of CPU
time — the same ~65x device advantage as the spectral tasks, which is
what Table II's near-linear GPU scaling requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.task import Task, TaskKind

__all__ = ["NEIWorkloadSpec", "build_nei_tasks", "attach_real_execution"]


@dataclass(frozen=True)
class NEIWorkloadSpec:
    """Scale and cost parameters of one NEI run.

    ``n_grid_points`` defaults to a bench-friendly 24,000 (the paper's
    10^6 scales every makespan by ~42x without changing any speedup —
    the quantities Table II reports are ratios).
    """

    n_grid_points: int = 24_000
    timesteps: int = 1000
    points_per_task: int = 10  # the paper's packing
    n_elements: int = 12  # "about a dozen of ODE groups" per point
    gpu_units_per_step: int = 12500
    cpu_units_per_step: int = 3600
    #: Host-side prep of one NEI task expressed in equivalent "levels"
    #: (reuses the spectral prep pricing; one pack of ten points needs
    #: roughly one ion-task's worth of marshalling).
    prep_levels: int = 8

    def __post_init__(self) -> None:
        if self.n_grid_points < 1 or self.timesteps < 1:
            raise ValueError("workload must be non-empty")
        if self.points_per_task < 1:
            raise ValueError("points_per_task must be >= 1")
        if self.n_grid_points % self.points_per_task != 0:
            raise ValueError(
                "n_grid_points must be a multiple of points_per_task"
            )
        if self.gpu_units_per_step < 1:
            raise ValueError("gpu_units_per_step must be >= 1")
        if self.n_elements < 0 or self.prep_levels < 0:
            raise ValueError("n_elements and prep_levels must be non-negative")

    @property
    def n_tasks(self) -> int:
        return self.n_grid_points // self.points_per_task

    @property
    def steps_per_task(self) -> int:
        return self.points_per_task * self.timesteps


def build_nei_tasks(
    spec: NEIWorkloadSpec,
    n_partitions: int = 24,
    gpu_execute_factory: Optional[Callable[[int], Callable[[], object]]] = None,
    cpu_execute_factory: Optional[Callable[[int], Callable[[], object]]] = None,
) -> list[Task]:
    """Materialize the NEI task list.

    Tasks are spread over ``n_partitions`` pseudo-points so the hybrid
    runner's equal-subspace partition gives every rank the same share
    (the NEI parameter space has no 24-point structure to reuse).
    """
    nbytes = spec.points_per_task * spec.n_elements * 16 * 8
    tasks: list[Task] = []
    for tid in range(spec.n_tasks):
        tasks.append(
            Task(
                tid,
                TaskKind.NEI_CHUNK,
                tid % n_partitions,
                label=f"nei{tid}",
                n_levels=spec.prep_levels,
                n_integrals=spec.steps_per_task,
                evals_per_integral=spec.gpu_units_per_step,
                bytes_in=nbytes,
                bytes_out=nbytes,
                cpu_evals_per_integral=spec.cpu_units_per_step,
                execute=gpu_execute_factory(tid) if gpu_execute_factory else None,
                cpu_execute=cpu_execute_factory(tid) if cpu_execute_factory else None,
            )
        )
    return tasks


def attach_real_execution(
    tasks: list[Task],
    spec: NEIWorkloadSpec,
    z: int = 8,
    ne_cm3: float = 1.0e10,
    t_initial_k: float = 1.0e4,
    t_final_k: float = 1.0e6,
    dt_s: float | None = None,
) -> dict[int, "object"]:
    """Attach real NEI numerics to an existing task list, in place.

    The GPU path advances each task's pack of grid points with the
    fixed-step :class:`~repro.nei.propagator.EigenPropagator` (the shape a
    CUDA kernel wants: one decomposition, many states, fixed steps); the
    CPU fallback runs the adaptive
    :class:`~repro.nei.solvers.AutoSwitchSolver` per point.  Both paths
    return the pack's final ion-fraction states as an array of shape
    ``(points_per_task, z + 1)``, so the hybrid runner's result
    accumulation can be checked against the matrix-exponential reference.

    Returns a context dict (system, propagator, y0, dt) for tests.
    """
    from repro.nei.equilibrium import equilibrium_state, relaxation_time_scale
    from repro.nei.odes import NEISystem
    from repro.nei.propagator import EigenPropagator
    from repro.nei.solvers import AutoSwitchSolver

    import numpy as np

    system = NEISystem(z=z, ne_cm3=ne_cm3, temperature_k=t_final_k)
    y0 = equilibrium_state(z, t_initial_k)
    tau = relaxation_time_scale(z, t_final_k, ne_cm3)
    if dt_s is None:
        dt_s = 2.0 * tau / spec.timesteps
    propagator = EigenPropagator.build(system)

    def gpu_execute(task_id: int):
        def run() -> np.ndarray:
            states = np.tile(y0, (spec.points_per_task, 1))
            traj = propagator.propagate_many(states, dt_s, spec.timesteps)
            return traj[-1]

        return run

    def cpu_execute(task_id: int):
        def run() -> np.ndarray:
            solver = AutoSwitchSolver(rtol=1e-8, atol=1e-12)
            res = solver.solve(
                system.rhs, system.jacobian, y0,
                (0.0, dt_s * spec.timesteps), save_every=10**9,
            )
            return np.tile(res.y_final, (spec.points_per_task, 1))

        return run

    for task in tasks:
        task.execute = gpu_execute(task.task_id)
        task.cpu_execute = cpu_execute(task.task_id)
    return {
        "system": system,
        "propagator": propagator,
        "y0": y0,
        "dt_s": dt_s,
        "tau": tau,
    }
