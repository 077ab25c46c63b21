"""Offline schedule analysis: replay and validate a run's task rows.

The task rows a traced run leaves in its :class:`~repro.obs.tracer.EventTracer`
are a complete description of one hybrid schedule: each task's ``END``
row names its rank (the track), task id, device, and when it was
submitted, served and done.  This module re-derives scheduler state from
those rows alone and checks it against the invariants the live scheduler
is supposed to maintain — an independent auditor, sharing no code with
the scheduler it audits — plus summary statistics for schedule
post-mortems (per-rank busy fractions, device occupancy, fallback
clustering).  It audits synchronous, asynchronous and predictive runs,
and service runs: a task is named by its trace parent and task id, a
device by the trace process (node) of the ranks that ran on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import END

__all__ = ["ReplayReport", "replay_trace"]


@dataclass
class ReplayReport:
    """Everything the auditor derived from one run's rows.

    ``tasks`` holds one ``(rank track, task_id, device, enqueue, start,
    end)`` per ``END`` row, in row order; ``device`` is -1 for a CPU
    fallback, whose ``enqueue`` is its ``start``.  Per-device figures sum
    (counts) or peak (occupancy) over the nodes of a service run.
    """

    n_gpu: int
    n_cpu: int
    makespan_s: float
    tasks: list[tuple] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    rank_busy_fraction: dict[int, float] = field(default_factory=dict)
    device_task_counts: dict[int, int] = field(default_factory=dict)
    max_concurrent_per_device: dict[int, int] = field(default_factory=dict)
    fallback_runs: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _sweep(intervals: list[tuple[float, float]]) -> tuple[int, float]:
    """(most intervals open at once, time at least one is open); an
    interval ending where another starts does not overlap it."""
    edges = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    live = peak = 0
    covered = opened = 0.0
    for t, delta in edges:
        if live == 0:
            opened = t
        live += delta
        peak = max(peak, live)
        if live == 0:
            covered += t - opened
    return peak, covered


def replay_trace(
    tracer,
    max_queue_length: int | None = None,
    n_expected_tasks: int | None = None,
    async_depth: int = 0,
) -> ReplayReport:
    """Audit the task rows ``tracer`` recorded over one hybrid run or
    over the batches of a service run.

    Checks performed:

    - every task, ``(trace parent, task id)``, appears exactly once;
    - no rank has more than ``max(1, async_depth)`` tasks open, from
      submission to end, at once (a synchronous rank runs one task at a
      time);
    - no task starts before it is submitted or ends before it starts;
    - when ``max_queue_length`` is given, the number of *simultaneously
      open* GPU tasks per device of a node never exceeds it (the queue
      bound seen from the outside);
    - when ``n_expected_tasks`` is given, the record is complete.

    Reading ``tracer.events`` expands rows into events in place, so a
    tracer whose task rows have already given way cannot be audited:
    that raises ``ValueError`` rather than audit part of a run.
    """
    tasks, ids = [], []  # ids: (trace parent, task id)
    for row in tracer.log:
        if row.__class__ is tuple:
            if row[0] == END:
                # (END, track, name, start, end, id, parent, device, wait_s,
                #  service_s, submitted_at, started, stolen, predicted_s, task_id, ...)
                started = row[11]
                enqueue = started if row[10] is None else row[10]
                tasks.append((row[1], row[14], row[7], enqueue, started, row[4]))
                ids.append((row[6], row[14]))
        elif row is not None and row.ph == "X" and row.cat == "task":
            raise ValueError(
                "the tracer's events were read: its task rows gave way to "
                "events, so the record is no longer complete"
            )
    n_gpu = sum(1 for t in tasks if t[2] >= 0)
    report = ReplayReport(
        n_gpu=n_gpu,
        n_cpu=len(tasks) - n_gpu,
        makespan_s=max((t[5] for t in tasks), default=0.0),
        tasks=tasks,
    )

    # Uniqueness / completeness.
    if len(set(ids)) != len(ids):
        report.violations.append("duplicate task ids in trace")
    if n_expected_tasks is not None and len(ids) != n_expected_tasks:
        report.violations.append(
            f"trace has {len(ids)} tasks, expected {n_expected_tasks}"
        )

    # Per-rank concurrency + busy fractions.
    by_rank: dict[int, list[tuple[float, float]]] = {}
    for rank, task_id, _device, enqueue, start, end in tasks:
        if not enqueue <= start <= end:
            report.violations.append(
                f"task {task_id} is not submitted, started and done in that order"
            )
        by_rank.setdefault(rank, []).append((enqueue, end))
    bound = max(1, async_depth)
    for rank, intervals in by_rank.items():
        peak, busy = _sweep(intervals)
        if peak > bound:
            track = tracer.tracks[rank]
            report.violations.append(
                f"{track.process}/{track.thread}: {peak} tasks open at once, "
                f"more than {bound}"
            )
        if report.makespan_s > 0.0:
            report.rank_busy_fraction[rank] = busy / report.makespan_s

    # Device occupancy from the outside, per node.
    by_device: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for rank, _task_id, device, _enqueue, start, end in tasks:
        if device >= 0:
            node = tracer.tracks[rank].process
            by_device.setdefault((node, device), []).append((start, end))
    counts, peaks = report.device_task_counts, report.max_concurrent_per_device
    for (node, device), intervals in by_device.items():
        counts[device] = counts.get(device, 0) + len(intervals)
        peak, _busy = _sweep(intervals)
        peaks[device] = max(peaks.get(device, 0), peak)
        if max_queue_length is not None and peak > max_queue_length:
            report.violations.append(
                f"{node} device {device}: {peak} concurrent tasks exceeds the "
                f"queue bound {max_queue_length}"
            )

    # Fallback clustering: lengths of consecutive CPU placements in task
    # order (long runs = a rank stuck on the slow path).
    run = 0
    for _task, device in sorted((task, t[2]) for task, t in zip(ids, tasks)):
        if device < 0:
            run += 1
        elif run:
            report.fallback_runs.append(run)
            run = 0
    if run:
        report.fallback_runs.append(run)

    return report
