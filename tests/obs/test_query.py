"""Query engine: golden results over a canned store, parser errors."""

import pytest

from repro.obs import MetricsRegistry, QueryEngine, QueryError, TimeSeriesStore
from repro.obs.prom import Histogram
from repro.obs.query import format_result, parse_query
from tests.obs.test_prom import set_counter


def _canned_store() -> TimeSeriesStore:
    """Ten scrapes of a counter (5/s on lane a, 2/s on lane b), a sawing
    gauge, and a histogram filling one observation per scrape."""
    store = TimeSeriesStore()
    for i in range(10):
        reg = MetricsRegistry()
        set_counter(reg, "reqs_total", 5.0 * i, lane="a")
        set_counter(reg, "reqs_total", 2.0 * i, lane="b")
        reg.gauge("depth", "h").set(float(i % 4))
        h = reg.register(Histogram("lat", "h", ("lane",), buckets=(1.0, 2.0, 4.0)))
        for j in range(i):
            h.observe(0.5 + 0.4 * j, lane="a")
        store.scrape(reg, now=float(i))
    return store


@pytest.fixture(scope="module")
def engine() -> QueryEngine:
    return QueryEngine(_canned_store())


def _values(result) -> dict[tuple, float]:
    return {s.labels: s.value for s in result}


class TestInstantSelectors:
    def test_plain_selector_reads_newest(self, engine):
        got = _values(engine.query("reqs_total"))
        assert got[(("lane", "a"),)] == 45.0
        assert got[(("lane", "b"),)] == 18.0

    def test_at_reads_past_state(self, engine):
        got = _values(engine.query("reqs_total", at=4.0))
        assert got[(("lane", "a"),)] == 20.0

    def test_equality_matcher(self, engine):
        result = engine.query('reqs_total{lane="a"}')
        assert _values(result) == {(("lane", "a"),): 45.0}

    def test_negative_and_regex_matchers(self, engine):
        assert _values(engine.query('reqs_total{lane!="a"}')) == {
            (("lane", "b"),): 18.0
        }
        assert set(_values(engine.query('reqs_total{lane=~"a|b"}'))) == {
            (("lane", "a"),),
            (("lane", "b"),),
        }

    def test_unknown_series_is_empty_vector(self, engine):
        assert engine.query("absent_metric") == []
        assert format_result(engine.query("absent_metric")) == "(empty vector)"

    def test_empty_store_returns_empty(self):
        assert QueryEngine(TimeSeriesStore()).query("anything") == []


class TestRangeFunctions:
    def test_rate_is_windowed_delta_over_actual_span(self, engine):
        # Base point at t=5 (value 25), latest at t=9 (value 45).
        got = _values(engine.query('rate(reqs_total{lane="a"}[4s])'))
        assert got[(("lane", "a"),)] == (45.0 - 25.0) / 4.0

    def test_rate_window_past_history_uses_oldest(self, engine):
        got = _values(engine.query('rate(reqs_total{lane="b"}[1h])'))
        assert got[(("lane", "b"),)] == 18.0 / 9.0

    def test_increase(self, engine):
        got = _values(engine.query('increase(reqs_total{lane="a"}[2s])'))
        assert got[(("lane", "a"),)] == 10.0

    def test_over_time_family(self, engine):
        # depth cycles 0,1,2,3; window (5, 9] holds 2,3,0,1.
        q = lambda f: _values(engine.query(f"{f}(depth[4s])"))[()]
        assert q("avg_over_time") == 1.5
        assert q("max_over_time") == 3.0
        assert q("min_over_time") == 0.0
        assert q("sum_over_time") == 6.0
        assert q("count_over_time") == 4.0

    def test_duration_units(self, engine):
        ast = parse_query("rate(x[2m])")
        assert ast.args[0].window_s == 120.0
        assert parse_query("rate(x[500ms])").args[0].window_s == 0.5
        assert parse_query("rate(x[1h])").args[0].window_s == 3600.0


class TestHistogramQuantile:
    def test_matches_registry_estimator_exactly(self, engine):
        reg = MetricsRegistry()
        h = reg.register(Histogram("lat", "h", ("lane",), buckets=(1.0, 2.0, 4.0)))
        for j in range(9):
            h.observe(0.5 + 0.4 * j, lane="a")
        for q in (0.5, 0.9, 0.95, 0.99):
            got = _values(
                engine.query(f"histogram_quantile({q}, lat_bucket)")
            )
            assert got[(("lane", "a"),)] == h.quantile(q, lane="a")

    def test_needs_le_labels(self, engine):
        with pytest.raises(QueryError, match="le"):
            engine.query("histogram_quantile(0.5, depth)")

    def test_scalar_second_arg_rejected(self, engine):
        with pytest.raises(QueryError, match="vector"):
            engine.query("histogram_quantile(0.5, 3)")


class TestBinaryOps:
    def test_scalar_arithmetic(self, engine):
        assert engine.query("2 + 3 * 4") == 14.0
        assert engine.query("(2 + 3) * 4") == 20.0

    def test_scalar_vector_broadcast(self, engine):
        got = _values(engine.query('reqs_total{lane="a"} / 9'))
        assert got[(("lane", "a"),)] == 5.0
        got = _values(engine.query('2 * reqs_total{lane="b"}'))
        assert got[(("lane", "b"),)] == 36.0

    def test_vector_vector_joins_on_identical_labels(self, engine):
        got = _values(engine.query("reqs_total / reqs_total"))
        assert got == {(("lane", "a"),): 1.0, (("lane", "b"),): 1.0}
        # Disjoint label sets do not join.
        assert engine.query('reqs_total{lane="a"} + reqs_total{lane="b"}') == []

    def test_division_by_zero_yields_zero(self, engine):
        assert engine.query("1 / 0") == 0.0


class TestParserErrors:
    @pytest.mark.parametrize(
        "expr",
        [
            "",
            "rate(depth)",  # range function without window
            "depth[5s]",  # bare range selector
            "rate(",
            'reqs_total{lane=}',
            "reqs_total{lane~\"a\"}",
            "1 +",
            "nope(depth[1s])",
        ],
    )
    def test_bad_expressions_raise_query_error(self, engine, expr):
        with pytest.raises(QueryError):
            engine.query(expr)

    def test_query_error_is_value_error(self):
        assert issubclass(QueryError, ValueError)

    def test_ast_cache_reuses_parse(self, engine):
        a = engine.compile("depth")
        assert engine.compile("depth") is a
