"""Invariants of the observability stack, property-tested.

The rule the consumers follow is "hold a cursor — recompute nothing from
history"; these properties pin what that rule must never change: exact
tick conservation, bit-exact series encoding, scans that see each point
once however they are cut up, a live registry that renders what a fresh
one would, and per-scrape work that is counted, not timed.
"""

import math
import struct
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import AnomalyDetector, EventTracer, TimeSeriesStore
from repro.obs import attribution, prom, tsdb
from repro.obs.attribution import Attribution, _split_ticks
from repro.obs.prom import Histogram, MetricsRegistry, fill_service
from repro.obs.tsdb import Series, decode_floats, encode_floats
from repro.service.broker import ServiceConfig, SpectrumBroker, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace


class TestSplitTicks:
    @settings(max_examples=200, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=10**15),
        weights=st.lists(
            st.floats(min_value=1e-9, max_value=1e9), min_size=1, max_size=33
        ),
    )
    def test_non_negative_integers_summing_to_total(self, total, weights):
        shares = _split_ticks(total, weights)
        assert len(shares) == len(weights)
        assert all(isinstance(s, int) and s >= 0 for s in shares)
        assert sum(shares) == total


class TestFloatEncoding:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40))
    def test_round_trip_is_bit_exact(self, patterns):
        """Every bit pattern survives: -0.0, infinities, NaN payloads."""
        values = [struct.unpack(">d", struct.pack(">Q", p))[0] for p in patterns]
        decoded = decode_floats(encode_floats(values))
        assert [struct.pack(">d", v) for v in decoded] == [
            struct.pack(">d", v) for v in values
        ]

    def test_named_special_values(self):
        values = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324]
        decoded = decode_floats(encode_floats(values))
        assert math.copysign(1.0, decoded[0]) == -1.0
        assert decoded[2:4] == [math.inf, -math.inf]
        assert math.isnan(decoded[4]) and decoded[5] == 5e-324


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _detector_state(det: AnomalyDetector) -> dict:
    return {
        key: (s.ewma, s.seen, s.prev_raw, s.cursor, list(s.window), s.ordered)
        for key, s in det._states.items()
    }


class TestInstalmentScans:
    @settings(max_examples=60, deadline=None)
    @given(
        columns=st.lists(
            st.tuples(_finite, _finite), min_size=1, max_size=120
        ),
        cuts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=60),
        capacity=st.integers(min_value=6, max_value=12),
    )
    def test_instalments_equal_one_scan_ring_eviction_included(
        self, columns, cuts, capacity
    ):
        """A small ring scanned in arbitrary instalments (none longer than
        the ring) reads every point exactly once: same events, same state
        as one scan of a ring that never evicted."""
        empty = [Series("g", {}, "gauge").to_dict(), Series("c_total", {"k": "v"}, "counter").to_dict()]
        small, big = (
            TimeSeriesStore.from_dict({"schema": tsdb.TSDB_SCHEMA, "capacity": c, "series": empty})
            for c in (capacity, max(2, len(columns)))
        )
        kw = dict(k=2.0, warmup=3, window=5)
        piecewise, whole = AnomalyDetector(**kw), AnomalyDetector(**kw)
        t = 0
        cut = iter(cuts)
        left = next(cut, 6)
        total = 0.0
        for gauge, step in columns:
            t += 1
            total += abs(step)
            for store in (small, big):
                store.get("g").append(float(t), gauge)
                store.get("c_total", {"k": "v"}).append(float(t), total)
            left -= 1
            if left == 0:
                piecewise.scan(small)
                left = next(cut, 6)
        piecewise.scan(small)
        whole.scan(big)
        assert sum(s.evicted for s in small.series()) == 2 * max(
            0, len(columns) - capacity
        )
        # One scan emits series by series, instalments scan by scan: the
        # same events, each series' own in time order.
        def by_series(events):
            return sorted((e.series, e.t, sorted(e.as_dict().items(), key=str))
                          for e in events)

        assert by_series(piecewise.events) == by_series(whole.events)
        assert piecewise.points_seen == whole.points_seen == 2 * len(columns)
        assert _detector_state(piecewise) == _detector_state(whole)


class TestLiveRegistry:
    @settings(max_examples=12, deadline=None)
    @given(
        pattern=st.sampled_from(["uniform", "zipf", "walk"]),
        interactive=st.sampled_from([0.0, 0.25, 1.0]),
        window=st.sampled_from([None, 0.0, 0.05]),
        traced=st.booleans(),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_refreshed_registry_renders_what_a_fresh_one_would(
        self, pattern, interactive, window, traced, seed
    ):
        """At every batch of a random trace the broker's live registry is
        byte-identical to one filled for the first time at that instant."""
        trace = generate_trace(
            TrafficSpec(
                n_requests=24, pattern=pattern, n_distinct=10, seed=seed,
                interactive_fraction=interactive, burst=4, z_max=4, n_bins=32,
                accuracy=1e-3 if pattern == "walk" else 0.0,
            )
        )
        config = ServiceConfig(n_service_workers=2, batch_window_s=window)
        live_registry = SpectrumBroker.registry
        renders = []

        def checked(broker):
            live = live_registry(broker)
            renders.append(live.render())
            assert renders[-1] == fill_service(MetricsRegistry(), broker).render()
            assert live is live_registry(broker)
            return live

        with mock.patch.object(SpectrumBroker, "registry", checked):
            run_trace(
                trace, config, tracer=EventTracer() if traced else None,
                tsdb=TimeSeriesStore(cadence_s=0.0),
            )
        assert renders


def test_lane_totals_are_the_trace_id_ordered_sums():
    """Heavy-tailed work on four workers settles requests out of trace-id
    order (a plain running total drifts a last bit on ~1 read in 5 here);
    the ledger's kept totals must stay the floats a sorted replay gives,
    because that is what the exposition text is defined as."""
    trace = generate_trace(
        TrafficSpec(
            n_requests=120, pattern="uniform", n_distinct=30000, seed=3,
            mean_interarrival_s=0.05, tail=0.4, tail_z_max=14,
            interactive_fraction=0.5,
        )
    )
    config = ServiceConfig(n_service_workers=4, batch_max=1, queue_capacity=400)
    settled: list[int] = []
    real_set = attribution._SumById.set

    def recording_set(self, id, term):
        settled.append(id)
        real_set(self, id, term)

    with mock.patch.object(attribution._SumById, "set", recording_set):
        broker, _ = run_trace(trace, config, tracer=EventTracer())
        result = broker.cost_report()
    assert settled != sorted(settled)  # the case the ordered sum exists for
    replay: dict = {}
    for entry in result.entries:  # trace-id order
        for comp, ticks in entry.ticks.items():
            key = (entry.lane or "unknown", comp)
            replay[key] = replay.get(key, 0.0) + ticks / attribution.TICKS_PER_S
    kept = broker.attribution.lane_seconds()
    assert kept == {key: replay[key] for key in kept}
    assert any(kept.values())


def _counted(monkeypatch, counts, obj, name, size=lambda out: 1):
    real = getattr(obj, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        counts[name] += size(out)
        return out

    monkeypatch.setattr(obj, name, wrapper)


class _SnapshotDetector(AnomalyDetector):
    """Snapshots the call counters after each refresh + scrape + scan."""

    def __init__(self, counts: dict) -> None:
        super().__init__()
        self.counts = counts
        self.snapshots: list[dict] = []

    def scan(self, store):
        out = super().scan(store)
        self.snapshots.append(dict(self.counts, scanned=len(self._states)))
        return out


def _summed_at(store, name, t, **match) -> float:
    """Sum over label sets of series ``name``'s value at scrape time ``t``."""
    total = 0.0
    for series in store.series(name):
        point = series.latest_at(t)
        if point and all(series.labels.get(k) == v for k, v in match.items()):
            total += point[1]
    return total


class TestScrapeCostIsCounted:
    def test_cadence_work_is_what_arrived_since_not_the_history(self, monkeypatch):
        """400 cold requests: each refresh + scrape + scan observes only the
        completions since the last one, visits only ledger entries that
        gained cost and reads one new point per series — at request 400
        exactly as at request 100, by call count rather than by timing."""
        counts = dict.fromkeys(
            ("observe", "_label_key", "set", "result", "points", "tail"), 0
        )
        _counted(monkeypatch, counts, Histogram, "observe")
        _counted(monkeypatch, counts, tsdb, "_label_key")
        _counted(monkeypatch, counts, attribution._SumById, "set")
        _counted(monkeypatch, counts, Attribution, "result")
        _counted(monkeypatch, counts, Series, "points")
        _counted(monkeypatch, counts, Series, "tail", size=lambda out: len(out[0]))
        detector = _SnapshotDetector(counts)
        store = TimeSeriesStore(cadence_s=0.5)
        trace = generate_trace(
            TrafficSpec(
                n_requests=400, pattern="uniform", n_distinct=30000,
                mean_interarrival_s=0.4, tail_tol=1.0e-9, seed=7,
            )
        )
        run_trace(
            trace, ServiceConfig(n_service_workers=2), tracer=EventTracer(),
            tsdb=store, anomaly=detector,
        )
        assert len(detector.snapshots) == store.n_scrapes > 100
        assert counts["_label_key"] == len(store)  # once per series, ever
        assert counts["result"] == 0 and counts["points"] == 0
        before = dict.fromkeys(counts, 0)
        for t, snap in zip(store.scrape_times, detector.snapshots):
            done = _summed_at(store, "repro_request_latency_seconds_count", t)
            costed = _summed_at(store, "repro_requests_total", t, outcome="computed")
            # Cumulative == what has arrived, so each cadence's share is
            # exactly what arrived since the one before it.
            assert snap["observe"] == done
            assert snap["set"] == 3 * costed
            assert snap["tail"] - before["tail"] == snap["scanned"]
            before = snap
        assert done == 400


def test_prom_module_declares_every_exported_family():
    """The declarations are the schema: nothing registers a family outside."""
    broker, _ = run_trace(
        generate_trace(TrafficSpec(n_requests=4, seed=3)), ServiceConfig()
    )
    declared = [f.name for families, _ in prom.SERVICE_FAMILIES for f in families]
    assert [m.name for m in broker.registry().metrics()] == declared
    assert len(set(declared)) == len(declared)
