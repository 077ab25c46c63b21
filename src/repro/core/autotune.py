"""Automatic maximum-queue-length search.

Section III-A: "the scheduler chooses the maximum queue length through an
automatic test.  At the beginning the scheduler will try to find the most
proper maximum queue length by increasing the value of it gradually until
the performance inflexion occurs", then fixes the value at the inflexion
point.

The probe workload should be a small prefix of the real one (the paper
runs the test "at the beginning"); callers usually pass a few hundred
tasks.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.task import Task

__all__ = ["CANDIDATES", "autotune_queue_length", "probe_prefix"]

#: The queue lengths the search walks unless told otherwise.
CANDIDATES = (2, 4, 6, 8, 10, 12, 14, 16)


def probe_prefix(
    tasks: Sequence[Task],
    config: HybridConfig,
    tasks_per_point: int = 60,
) -> tuple[list[Task], HybridConfig]:
    """Build a representative probe from the start of a real workload.

    Two properties the probe must preserve or the tuned queue length will
    not transfer to the full run:

    - *contention structure*: every rank must be active, so the prefix
      takes the first ``tasks_per_point`` tasks of **every** grid point
      rather than whole points (a few-point probe leaves most ranks idle
      and the GPUs unsaturated — it tunes the wrong operating point);
    - *per-task host cost*: the per-point overhead amortizes over the
      point's full task count in the real run, so the probe's cost model
      scales it by the prefix fraction.

    Returns ``(probe_tasks, probe_config)`` ready for
    :func:`autotune_queue_length`.
    """
    if tasks_per_point < 1:
        raise ValueError("tasks_per_point must be >= 1")
    per_point: dict[int, int] = {}
    probe: list[Task] = []
    for task in tasks:
        seen = per_point.get(task.point_index, 0)
        if seen < tasks_per_point:
            probe.append(task)
            per_point[task.point_index] = seen + 1
    if not probe:
        raise ValueError("empty workload")
    full_per_point = max(
        sum(1 for t in tasks if t.point_index == p) for p in per_point
    )
    fraction = min(1.0, tasks_per_point / max(1, full_per_point))
    cost = config.cost.with_overrides(
        point_overhead_s=config.cost.point_overhead_s * fraction
    )
    return probe, replace(config, cost=cost)


def autotune_queue_length(
    config: HybridConfig,
    probe_tasks: Sequence[Task],
    candidates: Sequence[int] = CANDIDATES,
    patience: int = 1,
) -> tuple[int, dict[int, float]]:
    """Find the queue length at the performance inflexion point.

    Walks ``candidates`` in increasing order, timing the probe workload at
    each; stops after the makespan has risen for ``patience`` consecutive
    steps past the best seen (the inflexion).  Returns the best length and
    the measured times.
    """
    if not probe_tasks:
        raise ValueError("need a non-empty probe workload")
    if not candidates:
        raise ValueError("need at least one candidate queue length")
    if sorted(candidates) != list(candidates):
        raise ValueError("candidates must be increasing")

    times: dict[int, float] = {}
    best_len = candidates[0]
    best_time = float("inf")
    worse_streak = 0

    for length in candidates:
        runner = HybridRunner(replace(config, max_queue_length=length))
        result = runner.run(list(probe_tasks))
        times[length] = result.makespan_s
        if result.makespan_s < best_time:
            best_time = result.makespan_s
            best_len = length
            worse_streak = 0
        else:
            worse_streak += 1
            if worse_streak > patience:
                break
    return best_len, times
