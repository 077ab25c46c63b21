"""SLO engine: rule lifecycle, quantiles, zero overhead."""

import pytest

from repro.obs import MetricsRegistry, Rule, RuleState, SLOEngine
from repro.obs.query import FuncCall, Matcher, Number, QueryEngine, Selector
from repro.obs.tsdb import TimeSeriesStore
from repro.service.broker import ServiceConfig, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace


def _state(engine: SLOEngine, name: str) -> str:
    """A rule's state as the transition log tells it (inactive before any)."""
    moves = [tr.to for tr in engine.transitions if tr.rule == name]
    return moves[-1] if moves else RuleState.INACTIVE


def _gauge_registry(value: float) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.gauge("depth", "h").set(value)
    return reg


class TestRuleValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            Rule(name="r", metric="m", op="!=", threshold=1.0)

    def test_negative_for_rejected(self):
        with pytest.raises(ValueError, match="for_s"):
            Rule(name="r", metric="m", op=">", threshold=1.0, for_s=-1.0)

    def test_quantile_range(self):
        with pytest.raises(ValueError, match="quantile"):
            Rule(name="r", metric="m", op=">", threshold=1.0, quantile=1.5)

    def test_duplicate_rule_name_rejected(self):
        engine = SLOEngine()
        engine.add(Rule(name="r", metric="m", op=">", threshold=1.0))
        with pytest.raises(ValueError, match="already registered"):
            engine.add(Rule(name="r", metric="m", op="<", threshold=0.0))

    def test_describe_mentions_selector_and_window(self):
        rule = Rule(
            name="r", metric="m", op=">", threshold=2.0,
            labels={"lane": "interactive"}, for_s=1.0, quantile=0.95,
        )
        text = rule.describe()
        assert "quantile(0.95, m)" in text
        assert 'lane="interactive"' in text
        assert "for 1s" in text


class TestLifecycle:
    def test_pending_firing_resolved(self):
        """The acceptance scenario: breach -> pending -> firing -> resolved."""
        rule = Rule(name="depth", metric="depth", op=">", threshold=5.0, for_s=2.0)
        engine = SLOEngine((rule,))
        assert _state(engine, "depth") == RuleState.INACTIVE

        engine.sample(_gauge_registry(3.0), now=0.0)
        assert _state(engine, "depth") == RuleState.INACTIVE

        engine.sample(_gauge_registry(8.0), now=1.0)  # breach starts
        assert _state(engine, "depth") == RuleState.PENDING

        engine.sample(_gauge_registry(9.0), now=2.0)  # 1 s < for_s
        assert _state(engine, "depth") == RuleState.PENDING

        engine.sample(_gauge_registry(9.0), now=3.0)  # held for 2 s
        assert _state(engine, "depth") == RuleState.FIRING

        engine.sample(_gauge_registry(2.0), now=4.0)  # spike drains
        assert _state(engine, "depth") == RuleState.INACTIVE
        assert [tr.to for tr in engine.transitions] == [
            RuleState.PENDING, RuleState.FIRING, RuleState.INACTIVE,
        ]
        assert engine.transitions[-1].t == 4.0

    def test_for_zero_fires_immediately(self):
        engine = SLOEngine(
            (Rule(name="r", metric="depth", op=">=", threshold=1.0),)
        )
        engine.sample(_gauge_registry(1.0), now=0.0)
        assert _state(engine, "r") == RuleState.FIRING

    def test_breach_interrupted_before_for_never_fires(self):
        rule = Rule(name="r", metric="depth", op=">", threshold=5.0, for_s=2.0)
        engine = SLOEngine((rule,))
        engine.sample(_gauge_registry(8.0), now=0.0)
        engine.sample(_gauge_registry(1.0), now=1.0)  # recovers early
        engine.sample(_gauge_registry(8.0), now=1.5)  # breaches again
        engine.sample(_gauge_registry(8.0), now=3.0)  # only 1.5 s held
        assert _state(engine, "r") == RuleState.PENDING

    def test_report_lists_rules_and_transitions(self):
        rule = Rule(name="r", metric="depth", op=">", threshold=5.0)
        engine = SLOEngine((rule,))
        engine.sample(_gauge_registry(8.0), now=1.0)
        text = engine.report()
        assert "r" in text and "firing" in text
        assert "transitions" in text
        assert SLOEngine().report() == "(no SLO rules registered)"


class TestValueKinds:
    def test_quantile_rule_reads_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", ("lane",), buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.7, 3.5):
            h.observe(v, lane="a")
        rule = Rule(
            name="p95", metric="lat", op=">", threshold=2.0,
            labels={"lane": "a"}, quantile=0.95,
        )
        engine = SLOEngine((rule,))
        engine.sample(reg, now=0.0)
        assert _state(engine, "p95") == RuleState.FIRING

    def test_quantile_on_non_histogram_raises(self):
        reg = MetricsRegistry()
        reg.gauge("lat", "h").set(1.0)
        engine = SLOEngine(
            (Rule(name="r", metric="lat", op=">", threshold=0.0, quantile=0.5),)
        )
        with pytest.raises(TypeError, match="not a histogram"):
            engine.sample(reg, now=0.0)

    def test_plain_rule_on_a_histogram_raises(self):
        """Without ``quantile`` a histogram has no one value to compare."""
        reg = MetricsRegistry()
        reg.histogram("lat", "h", buckets=(1.0,)).observe(5.0)
        engine = SLOEngine(
            (Rule(name="lat-high", metric="lat", op=">", threshold=0.5),)
        )
        with pytest.raises(TypeError, match="'lat-high'.*histogram"):
            engine.sample(reg, now=0.0)

    def test_missing_metric_raises_key_error(self):
        engine = SLOEngine(
            (Rule(name="r", metric="absent", op=">", threshold=0.0),)
        )
        with pytest.raises(KeyError):
            engine.sample(MetricsRegistry(), now=0.0)


class TestServiceIntegration:
    def test_load_spike_pending_firing_resolved(self):
        """A bursty trace overruns the queue objective, then drains."""
        trace = generate_trace(
            TrafficSpec(
                n_requests=40, seed=5, n_distinct=20, mean_interarrival_s=0.01
            )
        )
        engine = SLOEngine(
            (
                Rule(
                    name="queue-depth",
                    metric="repro_queue_depth",
                    op=">",
                    threshold=4.0,
                    for_s=0.1,
                ),
            )
        )
        config = ServiceConfig(n_service_workers=1, queue_capacity=32)
        broker, tickets = run_trace(trace, config, slo=engine)
        states = [tr.to for tr in engine.transitions]
        assert RuleState.PENDING in states
        assert RuleState.FIRING in states
        # The final batch drains the queue: the rule resolves.
        assert _state(engine, "queue-depth") == RuleState.INACTIVE
        assert (RuleState.FIRING, RuleState.INACTIVE) in {
            (tr.frm, tr.to) for tr in engine.transitions
        }
        assert all(t is not None and t.done for t in tickets)

    def test_no_rules_is_bit_identical_to_no_engine(self):
        """The zero-overhead path: an empty engine changes nothing."""
        trace = generate_trace(TrafficSpec(n_requests=16, seed=3, n_distinct=4))
        config = ServiceConfig(n_service_workers=1)
        bare, _ = run_trace(trace, config)
        empty_engine = SLOEngine()
        monitored, _ = run_trace(trace, config, slo=empty_engine)
        assert bare.report() == monitored.report()
        assert empty_engine.transitions == []

    def test_empty_engine_sample_never_touches_registry(self):
        class Exploding:
            def get(self, name):  # pragma: no cover - must not be called
                raise AssertionError("registry touched on the no-op path")

        SLOEngine().sample(Exploding(), now=0.0)


class _StoreQuerySLOEngine(SLOEngine):
    """Reference evaluator: each sample is scraped into a two-point
    :class:`TimeSeriesStore` and each rule evaluated as a query at
    ``now`` — ``metric{labels}`` or ``histogram_quantile(q,
    metric_bucket{labels})``.  The equivalence tests below assert that
    reading the registry directly reproduces this evaluator's values and
    transitions bit for bit, so the query engine's quantile estimator and
    :meth:`Histogram.quantile` stay held to each other.
    """

    def __init__(self, rules):
        self.store = TimeSeriesStore(capacity=2)
        self.now = 0.0
        super().__init__(rules)

    def sample(self, registry, now):
        self.store.scrape(registry, now)
        self.now = now
        super().sample(registry, now)

    def _value(self, rule, registry):
        matchers = tuple(
            Matcher(k, "=", str(v)) for k, v in sorted(rule.labels.items())
        )
        if rule.quantile is not None:
            bucket = Selector(rule.metric + "_bucket", matchers)
            ast = FuncCall("histogram_quantile", (Number(rule.quantile), bucket))
        else:
            ast = Selector(rule.metric, matchers)
        result = QueryEngine(self.store).query_ast(ast, at=self.now)
        if isinstance(result, float):
            return result
        assert len(result) <= 1, (rule.name, result)
        return result[0].value if result else 0.0


class TestQueryEngineEquivalence:
    """Direct registry reads must agree with store-plus-query evaluation."""

    RULES = (
        Rule(
            name="interactive-p95",
            metric="repro_request_latency_seconds",
            labels={"lane": "interactive"},
            op=">",
            threshold=0.5,
            quantile=0.95,
            for_s=0.2,
        ),
        Rule(
            name="queue-depth",
            metric="repro_queue_depth",
            op=">",
            threshold=3.0,
            for_s=0.1,
        ),
    )

    def _run(self, engine):
        trace = generate_trace(
            TrafficSpec(
                n_requests=40, seed=11, n_distinct=8, mean_interarrival_s=0.02
            )
        )
        run_trace(trace, ServiceConfig(n_service_workers=1), slo=engine)
        return [
            (tr.t, tr.rule, tr.frm, tr.to, tr.value) for tr in engine.transitions
        ]

    def test_transitions_match_legacy_evaluator_exactly(self):
        new = self._run(SLOEngine(self.RULES))
        legacy = self._run(_StoreQuerySLOEngine(self.RULES))
        assert new == legacy
        assert new  # the trace must actually exercise transitions

    def test_values_match_on_synthetic_timeline(self):
        """Per-sample values, not just transitions, agree bit for bit."""
        new, old = SLOEngine(self.RULES), _StoreQuerySLOEngine(self.RULES)
        for i in range(12):
            reg = MetricsRegistry()
            h = reg.histogram(
                "repro_request_latency_seconds", "h", ("lane",),
                buckets=(0.25, 0.5, 1.0, 2.0),
            )
            for j in range(i + 1):
                h.observe(0.1 * ((i + j) % 9), lane="interactive")
            reg.gauge("repro_queue_depth", "h").set(float((i * 3) % 5))
            now = 0.3 * i
            new.sample(reg, now=now)
            old.sample(reg, now=now)
            for rule in self.RULES:
                assert new._states[rule.name].last_value == pytest.approx(
                    old._states[rule.name].last_value, abs=0.0
                ), (rule.name, i)
