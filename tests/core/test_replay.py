"""The trace auditor: replay_trace against live runs and crafted rows."""

from types import SimpleNamespace

import pytest

from repro.atomic.database import AtomicConfig
from repro.core.calibration import CostModel
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.replay import replay_trace
from repro.obs import EventTracer
from repro.service.broker import ServiceConfig, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace


def traced_run(**knobs):
    tasks = build_tasks(
        WorkloadSpec(n_points=2, bins_per_level=5_000, db_config=AtomicConfig.tiny())
    )
    cfg = HybridConfig(n_workers=4, n_gpus=2, max_queue_length=3, **knobs)
    tracer = EventTracer()
    return tasks, cfg, HybridRunner(cfg, tracer=tracer).run(tasks), tracer


@pytest.fixture(scope="module")
def audited_run():
    return traced_run()


def crafted(*tasks) -> EventTracer:
    """A tracer holding one END row per ``(rank, task_id, device, start,
    end)``, recorded as a rank records it: at ``end``."""
    clock = SimpleNamespace(now=0.0)
    tracer = EventTracer(clock)
    for rank, task_id, device, start, end in tasks:
        clock.now = end
        tracer.task_end(
            tracer.track("node", f"rank{rank}"), f"task{task_id}", start, task_id,
            0, device, started=start, task_id=task_id,
        )
    return tracer


class TestAuditLiveRuns:
    def test_clean_run_passes(self, audited_run):
        tasks, cfg, _result, tracer = audited_run
        report = replay_trace(
            tracer,
            max_queue_length=cfg.max_queue_length,
            n_expected_tasks=len(tasks),
        )
        assert report.ok, report.violations
        assert report.n_gpu + report.n_cpu == len(tasks)

    def test_occupancy_respects_bound(self, audited_run):
        _tasks, cfg, _result, tracer = audited_run
        report = replay_trace(tracer, cfg.max_queue_length)
        for device, peak in report.max_concurrent_per_device.items():
            assert peak <= cfg.max_queue_length

    def test_rank_busy_fractions_sane(self, audited_run):
        _tasks, _cfg, _result, tracer = audited_run
        report = replay_trace(tracer)
        assert report.rank_busy_fraction
        for frac in report.rank_busy_fraction.values():
            assert 0.0 < frac <= 1.0 + 1e-9

    def test_device_counts_match_metrics(self, audited_run):
        _tasks, _cfg, result, tracer = audited_run
        report = replay_trace(tracer)
        for device, count in report.device_task_counts.items():
            assert count == int(result.metrics.gpu_tasks[device])

    @pytest.mark.parametrize(
        "knobs", [dict(async_depth=2), dict(scheduler_kind="predictive")],
        ids=["async2", "predictive"],
    )
    def test_every_dispatch_loop_is_audited(self, knobs):
        tasks, cfg, result, tracer = traced_run(**knobs)
        report = replay_trace(
            tracer, cfg.max_queue_length, len(tasks), async_depth=cfg.async_depth
        )
        assert report.ok, report.violations
        assert report.device_task_counts == {
            d: int(n) for d, n in enumerate(result.metrics.gpu_tasks) if n
        }
        assert report.n_cpu == result.metrics.cpu_tasks


    def test_a_rank_holding_two_tasks_is_audited_at_its_depth(self):
        """Host work far shorter than a task's GPU service: each rank keeps
        two tasks in flight under ``async_depth=2``, which that depth
        allows and a depth of one names, rank by rank (the two points
        fall to ranks 0 and 1)."""
        fast_host = CostModel(
            point_overhead_s=0.0, prep_fixed_s=1e-5, prep_per_level_s=0.0,
            submit_overhead_s=1e-5,
        )
        tasks, cfg, _result, tracer = traced_run(async_depth=2, cost=fast_host)
        report = replay_trace(tracer, cfg.max_queue_length, len(tasks), async_depth=2)
        assert report.ok, report.violations
        assert replay_trace(tracer, async_depth=1).violations == [
            f"hybrid/rank{r}: 2 tasks open at once, more than 1" for r in (0, 1)
        ]

    def test_a_service_run_is_audited_batch_by_batch(self):
        """Two service workers, each its own node, number every batch's
        tasks from 0: a task is its (group, task id), a device its node's."""
        config = ServiceConfig(n_service_workers=2)
        tracer = EventTracer()
        run_trace(generate_trace(TrafficSpec(
            n_requests=24, pattern="uniform", n_distinct=30000,
            mean_interarrival_s=0.4, tail_tol=1.0e-9, seed=7,
        )), config, tracer=tracer)
        report = replay_trace(
            tracer, config.hybrid.max_queue_length, n_expected_tasks=24 * 36
        )
        assert report.ok, report.violations
        assert report.n_gpu + report.n_cpu == 24 * 36
        assert {tracer.tracks[t[0]].process for t in report.tasks} == {"svc0", "svc1"}


class TestAuditCraftedTraces:
    def test_detects_duplicate_ids(self):
        report = replay_trace(crafted((0, 1, -1, 0.0, 1.0), (1, 1, -1, 0.0, 1.0)))
        assert not report.ok
        assert any("duplicate" in v for v in report.violations)

    def test_detects_rank_overlap(self):
        tracer = crafted((0, 1, -1, 0.0, 2.0), (0, 2, -1, 1.0, 3.0))
        report = replay_trace(tracer)
        assert report.violations == ["node/rank0: 2 tasks open at once, more than 1"]
        assert replay_trace(tracer, async_depth=2).ok

    def test_async_depth_bounds_each_rank(self):
        tracer = crafted(*[(0, i, 0, 0.1 * i, 1.0) for i in range(3)])
        report = replay_trace(tracer, async_depth=2)
        assert report.violations == ["node/rank0: 3 tasks open at once, more than 2"]
        assert replay_trace(tracer, async_depth=3).ok

    def test_detects_queue_bound_breach(self):
        report = replay_trace(
            crafted(*[(r, r, 0, 0.0, 5.0) for r in range(4)]), max_queue_length=2
        )
        assert any("exceeds the" in v for v in report.violations)

    def test_detects_incomplete_trace(self):
        report = replay_trace(crafted((0, 0, -1, 0.0, 1.0)), n_expected_tasks=5)
        assert any("expected 5" in v for v in report.violations)

    def test_fallback_run_lengths(self):
        report = replay_trace(crafted(
            (0, 0, 0, 0.0, 1.0),
            (0, 1, -1, 1.0, 2.0),
            (0, 2, -1, 2.0, 3.0),
            (0, 3, 0, 3.0, 4.0),
            (0, 4, -1, 4.0, 5.0),
        ))
        assert report.fallback_runs == [2, 1]

    def test_empty_trace(self):
        report = replay_trace(EventTracer())
        assert report.ok
        assert report.makespan_s == 0.0

    def test_refuses_rows_that_gave_way_to_events(self):
        """Reading ``events`` swaps rows for events in place; the auditor
        reads the rows first, or refuses rather than audit part of a run."""
        tracer = crafted((0, 0, -1, 0.0, 1.0), (0, 1, 0, 1.0, 2.0))
        assert len(replay_trace(tracer).tasks) == 2
        assert len(list(tracer.events)) == 2
        with pytest.raises(ValueError, match="no longer complete"):
            replay_trace(tracer)
