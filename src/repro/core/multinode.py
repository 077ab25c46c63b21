"""Multi-node execution — the outer tier of the paper's Fig. 2.

"For simplicity and stability there is no central load balance server in
the parallel program, instead each physical node is equipped with a local
task scheduler.  The main program is responsible for load balance among
the different physical machines by dividing the whole parameter space
into several equal subspaces."

This module implements exactly that: the main program scatters equal
point sub-spaces to nodes over the (simulated) interconnect, each node
runs its own independent hybrid schedule, and results are gathered back.
Nodes share nothing at runtime, so the cluster makespan is the slowest
node plus the scatter/gather cost — which is also the model's prediction
to test against: near-perfect scaling while the point count divides
evenly, with a quantifiable remainder penalty when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.metrics import RunResult
from repro.core.task import Task

__all__ = ["MultiNodeConfig", "MultiNodeResult", "MultiNodeRunner"]


@dataclass(frozen=True)
class MultiNodeConfig:
    """A homogeneous cluster of hybrid nodes.

    Attributes
    ----------
    n_nodes:
        Physical machines, each with its own workers, GPUs and scheduler.
    node:
        The per-node configuration (the paper's: 24 ranks + N GPUs).
    interconnect_latency_s / interconnect_bandwidth_bs:
        Cost of shipping one sub-space description out and one result
        set back (per node, overlapped across nodes).
    bytes_per_task_result:
        Result payload per task (spectral bins) for the gather cost.
    """

    n_nodes: int = 2
    node: HybridConfig = field(default_factory=HybridConfig)
    interconnect_latency_s: float = 1.0e-3
    interconnect_bandwidth_bs: float = 1.0e9
    bytes_per_task_result: int = 50_000 * 8

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.interconnect_latency_s < 0 or self.interconnect_bandwidth_bs <= 0:
            raise ValueError("invalid interconnect parameters")
        if self.bytes_per_task_result < 0:
            raise ValueError("result payload must be non-negative")


@dataclass
class MultiNodeResult:
    """Cluster-level outcome."""

    makespan_s: float
    node_results: list[RunResult]
    comm_s: float

    def imbalance(self) -> float:
        """(max - min) / max node makespan; 0 = perfectly balanced."""
        times = [r.makespan_s for r in self.node_results]
        top = max(times)
        return (top - min(times)) / top if top > 0 else 0.0


class MultiNodeRunner:
    """Scatter points across nodes, run each node's hybrid schedule."""

    def __init__(self, config: MultiNodeConfig | None = None) -> None:
        self.config = config or MultiNodeConfig()

    def partition(self, tasks: list[Task]) -> list[list[Task]]:
        """Equal sub-spaces by grid point: point p goes to node p % N.

        Splitting whole *points* (not tasks) mirrors the paper: nodes
        receive sub-spaces of the parameter grid, and every task of one
        point stays with the rank that owns the point.
        """
        parts: list[list[Task]] = [[] for _ in range(self.config.n_nodes)]
        for task in tasks:
            parts[task.point_index % self.config.n_nodes].append(task)
        return parts

    def run(self, tasks: list[Task]) -> MultiNodeResult:
        """Run the cluster: one independent hybrid schedule per node."""
        cfg = self.config
        parts = self.partition(tasks)
        node_results: list[RunResult] = []
        for node_tasks in parts:
            # Re-index points onto the node's local ranks: rank r of a
            # node handles local points r, r + n_workers, ...
            local: list[Task] = []
            point_map: dict[int, int] = {}
            for task in node_tasks:
                local_point = point_map.setdefault(task.point_index, len(point_map))
                local.append(replace(task, point_index=local_point))
            node_results.append(HybridRunner(cfg.node).run(local) if local else _empty_result())

        # Scatter + gather, overlapped across nodes: one latency each way
        # plus the largest node's result payload over the link.
        max_tasks = max((len(p) for p in parts), default=0)
        comm = 2.0 * cfg.interconnect_latency_s + (
            max_tasks * cfg.bytes_per_task_result / cfg.interconnect_bandwidth_bs
        )
        makespan = max((r.makespan_s for r in node_results), default=0.0) + comm
        return MultiNodeResult(
            makespan_s=makespan,
            node_results=node_results,
            comm_s=comm,
        )


def _empty_result() -> RunResult:
    from repro.core.metrics import MetricsLedger

    m = MetricsLedger(0, 1)
    m.finalize(0.0)
    return RunResult(makespan_s=0.0, metrics=m, n_tasks=0, mode="hybrid")
