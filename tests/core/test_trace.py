"""Per-task trace recording."""

import pytest

from repro.atomic.database import AtomicConfig
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.metrics import TaskEvent


@pytest.fixture(scope="module")
def traced_run():
    tasks = build_tasks(
        WorkloadSpec(n_points=2, bins_per_level=2_000, db_config=AtomicConfig.tiny())
    )
    runner = HybridRunner(
        HybridConfig(n_workers=2, n_gpus=1, max_queue_length=2, record_trace=True)
    )
    return tasks, runner.run(tasks)


class TestTraceRecording:
    def test_every_task_appears_once(self, traced_run):
        tasks, result = traced_run
        ids = [ev.task_id for ev in result.metrics.trace]
        assert sorted(ids) == [t.task_id for t in tasks]

    def test_events_well_formed(self, traced_run):
        _tasks, result = traced_run
        for ev in result.metrics.trace:
            assert ev.end > ev.start >= 0.0
            assert ev.duration == ev.end - ev.start
            assert ev.placement in ("gpu", "cpu")
            assert (ev.device >= 0) == (ev.placement == "gpu")

    def test_events_within_makespan(self, traced_run):
        _tasks, result = traced_run
        for ev in result.metrics.trace:
            assert ev.end <= result.makespan_s + 1e-9

    def test_rank_task_intervals_disjoint(self, traced_run):
        """A synchronous rank works one task at a time."""
        _tasks, result = traced_run
        by_rank: dict[int, list[TaskEvent]] = {}
        for ev in result.metrics.trace:
            by_rank.setdefault(ev.rank, []).append(ev)
        for events in by_rank.values():
            events.sort(key=lambda e: e.start)
            for a, b in zip(events, events[1:]):
                assert b.start >= a.end - 1e-9

    def test_trace_off_by_default(self):
        tasks = build_tasks(
            WorkloadSpec(n_points=1, bins_per_level=1_000, db_config=AtomicConfig.tiny())
        )
        res = HybridRunner(
            HybridConfig(n_workers=2, n_gpus=1, max_queue_length=2)
        ).run(tasks)
        assert res.metrics.trace == []
