"""Causal cost attribution: exact conservation, backend invariance, model.

The load-bearing claims:

- every measured span an attributed run records is split back onto
  request ledger entries whose tick sums equal the measured totals
  **exactly** (integer arithmetic — zero tolerance);
- the ledger is bit-identical across execution backends (serial,
  thread) and with continuous batching off, because it is a
  pure function of the virtual-time span stream;
- every device kernel sub-span is reachable from exactly one request
  root through parent edges;
- the online cost model predicts, observes, serializes, and round-trips.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core.task import Task, TaskKind
from repro.obs import EventTracer, kernel_root_map
from repro.obs.attribution import (
    COMPONENTS,
    TICKS_PER_S,
    Attribution,
    CostModel,
    _split_ticks,
    ion_from_label,
)
from repro.service.broker import ServiceConfig, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace

TRACE = generate_trace(
    TrafficSpec(n_requests=24, seed=11, n_distinct=8, burst=4)
)


def attributed_run(**over):
    cfg = ServiceConfig(n_service_workers=2, **over)
    tracer = EventTracer()
    broker, tickets = run_trace(TRACE, cfg, tracer=tracer)
    return broker, tickets, tracer


def ledger_fingerprint(result) -> str:
    """Canonical JSON of the integer-tick ledger — bit-exact comparable."""
    return json.dumps(
        [
            (e.trace_id, e.lane, e.outcome, e.leader, sorted(e.ticks.items()))
            for e in result.entries
        ]
        + [sorted(result.measured_ticks.items())]
        + [sorted(result.attributed_ticks.items())],
        sort_keys=True,
    )


class TestSplitTicks:
    def test_conserves_exactly(self):
        weights = [3.0, 1.0, 1.0, 2.5]
        for total in (0, 1, 7, 999_999_999_999, 10**15 + 3):
            shares = _split_ticks(total, weights)
            assert sum(shares) == total
            assert all(s >= 0 for s in shares)

    def test_single_member_takes_all(self):
        assert _split_ticks(12345, [7.0]) == [12345]

    def test_deterministic_tie_break_by_index(self):
        # Equal weights, total not divisible: earlier members get the
        # remainder ticks.
        assert _split_ticks(5, [1.0, 1.0, 1.0]) == [2, 2, 1]
        assert _split_ticks(5, [1.0, 1.0, 1.0]) == [2, 2, 1]

    def test_proportional(self):
        shares = _split_ticks(1000, [3.0, 1.0])
        assert shares == [750, 250]


class TestLabels:
    def test_ion_from_label(self):
        assert ion_from_label("req3/O+7") == "O+7"
        assert ion_from_label("grp0/Fe+13x4") == "Fe+13"
        assert ion_from_label("bare") == "bare"

    def test_width_bucket(self):
        model = CostModel()
        for evals, width in ((0, 0), (1, 1), (1024, 11)):
            assert _price(model, "O+7", "simpson", evals)[:2] == (("O+7", "simpson", width), evals)


class TestConservation:
    @pytest.fixture(scope="class")
    def run(self):
        return attributed_run(
            batch_max=8, batch_width_max=8, batch_window_s=0.05
        )

    def test_attributed_equals_measured_exactly(self, run):
        broker, _tickets, _tracer = run
        result = broker.cost_report()
        for comp in COMPONENTS:
            assert result.attributed_ticks[comp] == result.measured_ticks[comp]
        assert result.conservation == 1.0

    def test_entry_sums_equal_measured(self, run):
        broker, _tickets, _tracer = run
        result = broker.cost_report()
        for comp in COMPONENTS:
            total = sum(e.ticks[comp] for e in result.entries)
            assert total == result.measured_ticks[comp]

    def test_measured_matches_span_stream(self, run):
        """The measured totals are exactly the rounded span durations."""
        broker, _tickets, tracer = run
        result = broker.cost_report()
        cats = {"compute": "compute", "ingress": "transfer", "egress": "transfer", "wait": "wait"}
        expected = {c: 0 for c in COMPONENTS}
        for ev in tracer.events:
            if ev.ph == "X" and ev.cat in cats:
                expected[cats[ev.cat]] += int(round(ev.dur * TICKS_PER_S))
            elif ev.ph == "X" and ev.cat == "task" and ev.args.get("placement") == "cpu":
                expected["compute"] += int(round(ev.dur * TICKS_PER_S))
        assert result.measured_ticks == expected

    def test_every_kernel_span_rooted(self, run):
        _broker, _tickets, tracer = run
        roots = kernel_root_map(tracer)
        assert roots
        assert all(root is not None for _idx, root in roots)

    def test_every_completed_request_has_an_entry(self, run):
        broker, tickets, _tracer = run
        result = broker.cost_report()
        ids = {e.trace_id for e in result.entries}
        for ticket in tickets:
            if ticket is not None and ticket.done:
                assert ticket.trace_id in ids


class TestBackendInvariance:
    """The ledger is a pure function of virtual time: the same dispatch
    schedule attributes the same ticks (the batched ledger is pinned
    across commits by ``test_obs_golden``'s ``burst`` case)."""

    def test_batching_off_still_conserves(self):
        broker, _tickets, tracer = attributed_run()  # no batch window
        result = broker.cost_report()
        assert result.conservation == 1.0
        for comp in COMPONENTS:
            assert result.attributed_ticks[comp] == result.measured_ticks[comp]
        roots = kernel_root_map(tracer)
        assert roots and all(r is not None for _i, r in roots)

    def test_batching_off_deterministic(self):
        a = ledger_fingerprint(attributed_run()[0].cost_report())
        b = ledger_fingerprint(attributed_run()[0].cost_report())
        assert a == b


class TestZeroCostOutcomes:
    def test_cache_hit_recorded_at_zero_cost(self):
        from repro.cluster.simclock import SimClock
        from repro.service.broker import SpectrumBroker
        from repro.service.requests import SpectrumRequest

        clock = SimClock()
        tracer = EventTracer(clock)
        broker = SpectrumBroker(clock, ServiceConfig(), tracer=tracer)
        broker.start()
        request = SpectrumRequest(temperature_k=1.0e7, z_max=4, n_bins=16)
        first = broker.submit(request)
        clock.run()
        second = broker.submit(request)
        assert second.cached
        result = broker.cost_report()
        by_id = {e.trace_id: e for e in result.entries}
        hit = by_id[second.trace_id]
        assert hit.outcome == "cache_hit"
        assert sum(hit.ticks.values()) == 0
        # The leader that actually computed carries the cost.
        assert sum(by_id[first.trace_id].ticks.values()) > 0


def _price(model: CostModel, ion: str, method: str, evals: int) -> tuple:
    """``model.price`` of one task, asked the way the scheduler asks it."""
    return model.price(Task(0, TaskKind.ION, method=method, label=f"pt0/{ion}", n_integrals=evals))


def _predict(model: CostModel, ion: str, method: str, evals: int) -> float:
    return _price(model, ion, method, evals)[2]


def _observe(model: CostModel, ion: str, method: str, evals: int, measured_s: float) -> None:
    """Fold one measurement in the way the dispatch keys it: under the
    key and evaluation count ``price`` gave the task."""
    key, evals, _ = _price(model, ion, method, evals)
    model.observe_key(key, evals, measured_s)


class TestCostModel:
    def test_prior_prediction(self):
        model = CostModel(prior_overhead_s=0.5, prior_eval_rate=100.0)
        assert _predict(model, "O+7", "simpson", 200) == 0.5 + 2.0

    def test_price_keys_on_ion_method_or_kind_and_width(self):
        model = CostModel(prior_overhead_s=0.5, prior_eval_rate=100.0)
        task = Task(0, TaskKind.ION, label="grp3/Fe+13x4", n_integrals=50, evals_per_integral=4)
        assert model.price(task) == (("Fe+13", "ion", 8), 200, 0.5 + 2.0)
        task.method = "romberg"
        assert model.price(task)[0] == ("Fe+13", "romberg", 8)

    def test_observe_then_predict(self):
        model = CostModel(alpha=0.5, prior_overhead_s=0.0, prior_eval_rate=1.0)
        _observe(model, "O+7", "simpson", 100, 3.0)
        assert _predict(model, "O+7", "simpson", 100) == 3.0
        # Same width bucket -> same key; EWMA pulls halfway.
        _observe(model, "O+7", "simpson", 100, 5.0)
        assert _predict(model, "O+7", "simpson", 100) == 4.0

    def test_error_tracked_before_update(self):
        model = CostModel(prior_overhead_s=0.0, prior_eval_rate=1.0)
        _observe(model, "X", "m", 10, 20.0)  # predicted 10 -> |rel err| 0.5
        assert model.n_observations == 1
        assert model.mean_abs_rel_error == pytest.approx(0.5)

    def test_round_trip(self):
        model = CostModel(alpha=0.3, prior_overhead_s=0.1, prior_eval_rate=2.0)
        _observe(model, "O+7", "simpson", 64, 1.5)
        _observe(model, "Fe+13", "romberg", 4096, 9.0)
        clone = CostModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert clone.to_dict() == model.to_dict()
        assert _predict(clone, "O+7", "simpson", 64) == _predict(model, "O+7", "simpson", 64)
        assert clone.mean_abs_rel_error == model.mean_abs_rel_error

    def test_from_spec(self):
        from repro.gpusim.device import TESLA_C2075

        model = CostModel.from_spec(TESLA_C2075)
        expected = (
            TESLA_C2075.context_switch_s
            + TESLA_C2075.kernel_launch_s
            + 2.0 * TESLA_C2075.pcie_latency_s
        )
        assert model.prior_overhead_s == expected
        assert model.prior_eval_rate == TESLA_C2075.eval_rate

    def test_online_model_learns_the_service(self):
        broker, _tickets, _tracer = attributed_run(
            batch_max=8, batch_width_max=8, batch_window_s=0.05
        )
        broker.cost_report()
        model = broker.cost_model
        assert model.n_keys > 0
        assert model.n_observations > 0
        # The device sim is deterministic: after seeding, the EWMA's
        # prediction error collapses to near zero.
        assert model.mean_abs_rel_error < 0.05


class TestStandaloneSpans:
    def test_orphan_spans_are_unattributed_not_lost(self):
        """Spans with no causal chain are booked, never silently dropped."""
        tracer = EventTracer()
        t = tracer.track("proc", "thread")
        tracer.span(t, "standalone", 0.0, 0.25, cat="compute")
        ledger = Attribution(tracer)
        ledger.ingest()
        result = ledger.result()
        assert result.entries == []
        assert result.attributed_ticks["compute"] == 0
        assert result.unattributed_ticks["compute"] == int(
            round(0.25 * TICKS_PER_S)
        )


class TestObservationOrder:
    """``drain_observations`` hands each finished GPU task over exactly
    once, in the order its END row arrived — however many ingests it takes."""

    @staticmethod
    def _phases(tracer, task_id, ion, phases):
        kernel = Task(0, TaskKind.ION, label=f"req{task_id}/{ion}", n_integrals=64)
        for phase in phases:
            tracer.device_phase(0, task_id, kernel, phase, 0.5 * phase, 0.5 * phase + 0.5)

    def test_first_seen_order_across_ingests(self):
        tracer = EventTracer(SimpleNamespace(now=1.5))
        t = tracer.track("node", "gpu0")
        tracer.span(
            t, "grp", 0.0, 9.0, cat="group", id=100,
            args={"members": [7], "weights": [1.0], "method": "simpson"},
        )
        # Task 2 finishes first; 1 and 3 have not left the device yet.
        self._phases(tracer, 2, "Fe+16", (0, 1, 2))
        tracer.task_end(t, "req2/Fe+16", 0.0, 2, 100, 0)
        self._phases(tracer, 1, "O+7", (0, 1))
        ledger = Attribution(tracer)
        ledger.ingest()
        assert [key[0] for key, _, _ in ledger.drain_observations()] == ["Fe+16"]
        # 3 then 1 complete, in that order: reported in END-row order.
        self._phases(tracer, 3, "Ne+9", (0, 1, 2))
        tracer.task_end(t, "req3/Ne+9", 0.0, 3, 100, 0)
        self._phases(tracer, 1, "O+7", (2,))
        tracer.task_end(t, "req1/O+7", 0.0, 1, 100, 0)
        ledger.ingest()
        assert [key[0] for key, _, _ in ledger.drain_observations()] == ["Ne+9", "O+7"]
        ledger.ingest()
        assert ledger.drain_observations() == []
