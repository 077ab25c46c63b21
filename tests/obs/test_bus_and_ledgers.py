"""Event buses, per-lane latency samples, and END-row timing fields."""

import numpy as np
import pytest

from repro.core.metrics import MetricsLedger
from repro.obs import EventTracer, RunBus, ServiceBus
from repro.cluster.simclock import SimClock
from repro.service.telemetry import LaneStats, ServiceTelemetry


class TestRunBus:
    def test_forwards_to_bare_ledger(self):
        ledger = MetricsLedger(n_devices=2, max_queue_length=4)
        bus = RunBus(ledger)
        bus.on_load_change(0, 0, 1, 0.0)
        bus.on_load_change(0, 1, 0, 1.0)
        bus.on_cpu_task()
        bus.on_task_timing(0.25)
        assert ledger.cpu_tasks == 1
        assert ledger.load_residency[0, 1] == pytest.approx(1.0)

    def test_mirrors_load_to_counter_track(self):
        ledger = MetricsLedger(n_devices=1, max_queue_length=4)
        tracer = EventTracer(SimClock())
        track = tracer.track("node", "gpu0")
        bus = RunBus(ledger, tracer, (track,))
        bus.on_load_change(0, 0, 2, 0.0)
        counters = [e for e in tracer.events if e.ph == "C"]
        assert counters and counters[0].args == {"value": 2}

    def test_ledger_math_identical_through_bus(self):
        direct = MetricsLedger(n_devices=1, max_queue_length=4)
        routed = MetricsLedger(n_devices=1, max_queue_length=4)
        bus = RunBus(routed, EventTracer(SimClock()), (0,))
        for ledger_call in (direct, bus):
            ledger_call.on_load_change(0, 0, 1, 0.5)
            ledger_call.on_load_change(0, 1, 2, 1.0)
            ledger_call.on_load_change(0, 2, 0, 3.0)
            ledger_call.on_task_timing(0.1)
        assert np.array_equal(direct.load_residency, routed.load_residency)
        assert direct.task_waits == routed.task_waits


class TestServiceBus:
    def test_forwards_and_mirrors(self):
        tel = ServiceTelemetry(("interactive",))
        tracer = EventTracer(SimClock())
        bus = ServiceBus(
            tel,
            tracer,
            queue_track=tracer.track("service", "queue"),
            lane_tracks={"interactive": tracer.track("service", "lane.interactive")},
        )
        bus.on_arrival("interactive")
        bus.on_rejection("interactive")
        bus.on_retry("interactive")
        bus.on_queue_depth(3, 0.0)
        bus.finalize(1.0)
        stats = tel.lanes["interactive"]
        assert (stats.arrivals, stats.rejections, stats.retries) == (1, 1, 1)
        assert tel.max_depth == 3
        names = [e.name for e in tracer.events]
        assert "rejected" in names
        assert "retry" in names
        assert "queue_depth" in names


class TestLatencyReservoir:
    """Per-lane latency storage: every sample kept, mean and max streamed."""

    def test_unbounded_by_default(self):
        stats = LaneStats()
        for i in range(500):
            stats.record_latency(float(i))
        assert len(stats.latencies_s) == 500

    def test_hand_built_stats_still_report(self):
        stats = LaneStats(latencies_s=[1.0, 3.0])
        assert stats.mean_latency_s() == pytest.approx(2.0)
        assert stats.max_latency_s() == 3.0


class TestEndRowTiming:
    def test_hybrid_run_records_submission_separately(self):
        from repro.core.granularity import WorkloadSpec, build_tasks
        from repro.core.hybrid import HybridConfig, HybridRunner
        from repro.core.replay import replay_trace

        tasks = build_tasks(WorkloadSpec(n_points=1))
        tracer = EventTracer()
        HybridRunner(
            HybridConfig(n_gpus=1, max_queue_length=2), tracer=tracer
        ).run(tasks)
        records = replay_trace(tracer).tasks
        assert len(records) == len(tasks)
        for _rank, _task_id, _device, enqueue, start, end in records:
            assert enqueue <= start <= end
        # Some GPU tasks in a contended run actually waited.
        assert any(start > enqueue for _, _, d, enqueue, start, _ in records if d >= 0)
