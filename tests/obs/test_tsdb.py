"""Time-series store: exact round trips, ring eviction, cadence, federation."""

import inspect
import json
import math

import pytest

from repro.obs import MetricsRegistry, NULL_TSDB, NullTimeSeriesStore, Series, TimeSeriesStore
from repro.obs.prom import Histogram
from repro.obs.tsdb import decode_floats, encode_floats
from tests.obs.test_prom import set_counter


class TestCodec:
    def test_round_trip_is_bit_exact(self):
        values = [
            0.0, -0.0, 1.0, -1.0, 1e300, 5e-324, math.pi, 1e-9,
            float("inf"), -float("inf"), 2.0 ** 52, 1.0 + 2 ** -52,
        ]
        decoded = decode_floats(encode_floats(values))
        assert [math.copysign(1.0, v) for v in decoded] == [
            math.copysign(1.0, v) for v in values
        ]
        assert all(a == b for a, b in zip(decoded, values))

    def test_repeats_encode_to_zero_deltas(self):
        assert encode_floats([3.5, 3.5, 3.5])[1:] == [0, 0]

    def test_survives_json(self):
        values = [0.1 * i for i in range(100)]
        doc = json.loads(json.dumps(encode_floats(values)))
        assert decode_floats(doc) == values


class TestSeries:
    def test_append_and_window(self):
        s = Series("m", {"lane": "a"})
        for t in range(5):
            s.append(float(t), float(t) * 2.0)
        assert s.window(1.0, 3.0) == [(2.0, 4.0), (3.0, 6.0)]  # (start, end]
        assert s.latest_at(2.5) == (2.0, 4.0)
        assert s.latest_at(-1.0) is None

    def test_same_timestamp_overwrites(self):
        s = Series("m", {})
        s.append(1.0, 10.0)
        s.append(1.0, 20.0)
        assert s.points() == [(1.0, 20.0)]

    def test_non_monotonic_append_rejected(self):
        s = Series("m", {})
        s.append(2.0, 0.0)
        with pytest.raises(ValueError, match="non-monotonic"):
            s.append(1.0, 0.0)

    def test_ring_eviction_keeps_newest(self):
        s = Series("m", {}, capacity=4)
        for t in range(10):
            s.append(float(t), float(t))
        assert len(s) == 4
        assert [t for t, _ in s.points()] == [6.0, 7.0, 8.0, 9.0]
        assert s.evicted == 6

    def test_base_at_falls_back_to_oldest_retained(self):
        s = Series("m", {}, capacity=4)
        for t in range(10):
            s.append(float(t), float(t))
        # Window reaches past retained history: oldest retained point.
        assert s.base_at(9.0, window_s=100.0) == (6.0, 6.0)
        assert s.base_at(9.0, window_s=2.0) == (7.0, 7.0)


def _registry(total: float, depth: float) -> MetricsRegistry:
    reg = MetricsRegistry()
    set_counter(reg, "reqs_total", total, lane="a")
    reg.gauge("depth", "h").set(depth)
    h = reg.register(Histogram("lat", "h", buckets=(1.0, 2.0)))
    h.observe(0.5)
    return reg


class TestStore:
    def test_scrape_builds_series_per_label_set(self):
        store = TimeSeriesStore()
        store.scrape(_registry(3.0, 2.0), now=1.0)
        store.scrape(_registry(5.0, 1.0), now=2.0)
        [reqs], [depth] = store.series("reqs_total"), store.series("depth")
        assert reqs.labels == {"lane": "a"} and reqs.values() == [3.0, 5.0]
        assert depth.values() == [2.0, 1.0]
        assert store.families["reqs_total"] == "counter"
        assert store.families["lat_bucket"] == "histogram"
        assert store.scrape_times == [1.0, 2.0]
        assert store.n_scrapes == 2

    def test_cadence_gates_due(self):
        store = TimeSeriesStore(cadence_s=1.0)
        assert store.due(0.0)  # first scrape always due
        store.scrape(_registry(0.0, 0.0), now=0.0)
        assert not store.due(0.0)  # same instant: never
        assert not store.due(0.5)
        assert store.due(1.0)

    def test_json_round_trip_is_exact_and_stable(self):
        store = TimeSeriesStore(capacity=64, cadence_s=0.25)
        for i in range(20):
            store.scrape(_registry(float(i) * 1.1, math.sin(i)), now=i * 0.3)
        doc = json.loads(json.dumps(store.to_dict()))
        clone = TimeSeriesStore.from_dict(doc)
        assert clone.scrape_times == store.scrape_times
        assert clone.families == store.families
        for a, b in zip(store.series(), clone.series()):
            assert a.key == b.key and a.kind == b.kind
            assert a.points() == b.points()
        # Byte-stable: serializing the clone reproduces the document.
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            store.to_dict(), sort_keys=True
        )

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            TimeSeriesStore.from_dict({"schema": "nope"})

    @pytest.mark.parametrize("doc", [[], [{"schema": "repro.tsdb/v1"}], "x", 3, None])
    def test_from_dict_refuses_a_document_that_is_not_an_object(self, doc):
        with pytest.raises(ValueError, match=r"'repro\.tsdb/v1' object"):
            TimeSeriesStore.from_dict(doc)

    def test_to_dict_since_trims_window(self):
        store = TimeSeriesStore()
        for i in range(10):
            store.scrape(_registry(float(i), float(i)), now=float(i))
        doc = store.to_dict(since=7.0)
        assert decode_floats(doc["scrape_times"]) == [7.0, 8.0, 9.0]
        for sdoc in doc["series"]:
            assert len(sdoc["t"]) == 3

    def test_null_store_is_disabled_and_inert(self):
        assert not NULL_TSDB.enabled
        assert not NULL_TSDB.due(0.0)
        assert NULL_TSDB.scrape(None, 0.0) == 0
        assert NULL_TSDB.series() == [] and len(NULL_TSDB) == 0

    def test_null_store_methods_are_live_store_methods(self):
        """Like the null tracer's: every method the null store defines is
        one of the live store's, and takes a call without raising — so a
        copy of a live method that reads live-only state cannot hide there."""
        methods = [
            (name, fn) for name, fn in vars(NullTimeSeriesStore).items()
            if inspect.isfunction(fn)
        ]
        assert {"due", "scrape", "series"} <= {name for name, _ in methods}
        for name, fn in methods:
            assert inspect.isfunction(getattr(TimeSeriesStore, name, None)), name
            params = list(inspect.signature(fn).parameters.values())[1:]
            getattr(NULL_TSDB, name)(*[object() for p in params if p.default is p.empty])
