"""Golden-file trace test and the virtual-time-invariance guarantee.

A small deterministic serve run must (a) produce a schema-valid Chrome
trace with the full request -> batch -> task -> kernel hierarchy, (b)
match the committed golden structure (event multiset + track names —
timestamps are covered by determinism tests elsewhere), and (c) leave
every run result bit-identical whether tracing is on, off, or the
no-op tracer is passed explicitly.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.obs import NULL_TRACER, EventTracer, to_chrome, validate_chrome_trace
from repro.service.broker import ServiceConfig, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace

GOLDEN = pathlib.Path(__file__).parent / "golden_serve_trace.json"


def _golden_run(tracer=None):
    trace = generate_trace(TrafficSpec(n_requests=24, seed=11, n_distinct=8))
    return run_trace(trace, ServiceConfig(n_service_workers=1), tracer=tracer)


def _structure(tracer):
    from collections import Counter

    keyed = Counter(
        (
            ev.ph,
            ev.cat,
            ev.name
            if ev.ph in ("b", "e", "i", "C")
            or ev.cat in ("ingress", "compute", "egress")
            else "",
        )
        for ev in tracer.events
    )
    return {
        "event_counts": {"|".join(k): v for k, v in sorted(keyed.items())},
        "tracks": sorted(f"{t.process}/{t.thread}" for t in tracer.tracks),
        "n_events": len(tracer.events),
    }


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = EventTracer()
        broker, tickets = _golden_run(tracer)
        return tracer, broker, tickets

    def test_schema_valid(self, traced):
        tracer, _broker, _tickets = traced
        assert validate_chrome_trace(to_chrome(tracer)) == []

    def test_structure_matches_golden_file(self, traced):
        tracer, _broker, _tickets = traced
        golden = json.loads(GOLDEN.read_text())
        assert _structure(tracer) == golden

    def test_hierarchy_request_batch_task_kernel(self, traced):
        """Every level of the span hierarchy is present and consistent."""
        tracer, _broker, tickets = traced
        by_cat: dict[str, list] = {}
        for ev in tracer.events:
            by_cat.setdefault(ev.cat, []).append(ev)
        # request level: one b/e pair per completed ticket
        begins = [e for e in by_cat["request"] if e.ph == "b"]
        ends = [e for e in by_cat["request"] if e.ph == "e"]
        done = [t for t in tickets if t is not None and t.done]
        assert len(begins) == len(ends) == len(done)
        # batch level: dispatch spans cover their batch spans
        assert len(by_cat["dispatch"]) == len(by_cat["batch"])
        # task level: every task span nests inside its batch's interval
        batch_lo = min(e.ts for e in by_cat["batch"])
        batch_hi = max(e.ts + e.dur for e in by_cat["batch"])
        for ev in by_cat["task"]:
            assert ev.ts >= batch_lo - 1e-9
            assert ev.ts + ev.dur <= batch_hi + 1e-9
        # kernel level: ingress/compute/egress triplets per GPU task
        gpu_tasks = sum(1 for e in by_cat["task"] if e.args["placement"] == "gpu")
        assert len(by_cat["ingress"]) == gpu_tasks
        assert len(by_cat["compute"]) == gpu_tasks
        assert len(by_cat["egress"]) == gpu_tasks

    def test_placement_attributes_on_scheduler_instants(self, traced):
        tracer, _broker, _tickets = traced
        alloc = [e for e in tracer.events if e.name == "sche_alloc"]
        assert alloc
        for ev in alloc:
            assert "chosen" in ev.args
            assert "loads" in ev.args
            assert "histories" in ev.args

    def test_trace_is_deterministic(self, traced):
        tracer, _broker, _tickets = traced
        again = EventTracer()
        _golden_run(again)
        assert [
            (e.ph, e.name, e.cat, e.track, e.ts, e.dur) for e in again.events
        ] == [(e.ph, e.name, e.cat, e.track, e.ts, e.dur) for e in tracer.events]


class TestNoOpInvariance:
    def test_traced_serve_identical_to_untraced(self):
        b_off, t_off = _golden_run()
        b_on, t_on = _golden_run(EventTracer())
        assert json.dumps(b_off.report(), sort_keys=True) == json.dumps(
            b_on.report(), sort_keys=True
        )
        assert [t.latency_s for t in t_off if t] == [
            t.latency_s for t in t_on if t
        ]

    def test_null_tracer_run_identical_to_default(self):
        tasks = build_tasks(WorkloadSpec(n_points=2))
        cfg = HybridConfig(n_gpus=1, max_queue_length=4)
        base = HybridRunner(cfg).run(tasks)
        null = HybridRunner(cfg, tracer=NULL_TRACER).run(tasks)
        traced = HybridRunner(cfg, tracer=EventTracer()).run(tasks)
        assert base.makespan_s == null.makespan_s == traced.makespan_s
        for other in (null, traced):
            assert np.array_equal(base.metrics.gpu_tasks, other.metrics.gpu_tasks)
            assert base.metrics.cpu_tasks == other.metrics.cpu_tasks
            assert (
                base.metrics.load_residency.tobytes()
                == other.metrics.load_residency.tobytes()
            )
            assert sum(base.metrics.task_waits) == sum(other.metrics.task_waits)
