"""Per-task records: each task's END row in the tracer's log."""

import pytest

from repro.atomic.database import AtomicConfig
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.obs import EventTracer
from repro.obs.tracer import END


def end_rows(tracer) -> list[dict]:
    """The END rows of ``tracer.log``, by field name."""
    fields = (
        "kind", "track", "name", "start", "end", "id", "parent", "device",
        "wait_s", "service_s", "submitted_at", "started", "stolen",
        "predicted_s", "task_id", "load_track", "load",
    )
    return [
        dict(zip(fields, row, strict=True))
        for row in tracer.log
        if row.__class__ is tuple and row[0] == END
    ]


@pytest.fixture(scope="module")
def traced_run():
    tasks = build_tasks(
        WorkloadSpec(n_points=2, bins_per_level=2_000, db_config=AtomicConfig.tiny())
    )
    tracer = EventTracer()
    runner = HybridRunner(
        HybridConfig(n_workers=2, n_gpus=1, max_queue_length=2), tracer=tracer
    )
    result = runner.run(tasks)
    return tasks, result, end_rows(tracer)


class TestTraceRecording:
    def test_every_task_appears_once(self, traced_run):
        tasks, _result, rows = traced_run
        assert sorted(row["task_id"] for row in rows) == [t.task_id for t in tasks]

    def test_events_well_formed(self, traced_run):
        _tasks, _result, rows = traced_run
        for row in rows:
            assert row["device"] in (-1, 0)
            assert row["end"] > row["started"] >= row["start"] >= 0.0
            assert (row["service_s"] is None) == (row["device"] < 0)

    def test_events_within_makespan(self, traced_run):
        _tasks, result, rows = traced_run
        for row in rows:
            assert row["end"] <= result.makespan_s + 1e-9

    def test_rank_task_intervals_disjoint(self, traced_run):
        """A synchronous rank works one task at a time."""
        _tasks, _result, rows = traced_run
        by_rank: dict[int, list[dict]] = {}
        for row in rows:
            by_rank.setdefault(row["track"], []).append(row)
        assert len(by_rank) == 2
        for ranked in by_rank.values():
            ranked.sort(key=lambda r: r["started"])
            for a, b in zip(ranked, ranked[1:]):
                assert b["started"] >= a["end"] - 1e-9

    def test_waits_are_service_start_less_submission(self, traced_run):
        """A GPU task that waited carries its submission, and its wait is
        its service start less that submission."""
        _tasks, result, rows = traced_run
        gpu = [row for row in rows if row["device"] >= 0]
        waited = [row for row in gpu if row["submitted_at"] is not None]
        assert waited and len(waited) < len(gpu)
        for row in waited:
            assert row["wait_s"] == pytest.approx(row["started"] - row["submitted_at"])
            assert row["wait_s"] > 0.0
        assert sum(row["wait_s"] for row in gpu) == pytest.approx(
            sum(result.metrics.task_waits)
        )


@pytest.mark.parametrize("kind", ["shared", "predictive"])
def test_a_reused_runner_stamps_its_second_run_with_that_runs_clock(kind):
    """``run()`` builds a fresh clock each time; a traced runner's second
    run must read that clock, not the first run's, so its events carry
    the times and durations a fresh runner's do."""
    from repro.bench.workloads import paper_workload

    def stamps(events) -> list[tuple]:
        return [(e.ph, e.name, e.cat, e.ts.hex(), float(e.dur).hex()) for e in events]

    tasks = paper_workload(2)
    config = HybridConfig(scheduler_kind=kind)
    tracer = EventTracer()
    runner = HybridRunner(config, tracer=tracer)
    runner.run(tasks)
    first = len(tracer.events)
    runner.run(tasks)
    fresh = EventTracer()
    HybridRunner(config, tracer=fresh).run(tasks)
    second = list(tracer.events)[first:]
    assert len(second) == len(fresh.events)
    assert stamps(second) == stamps(fresh.events)
