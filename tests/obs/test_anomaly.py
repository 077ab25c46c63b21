"""Anomaly detection: control bands, counter deltas, bus/flight wiring."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import AnomalyDetector, AnomalyEvent, MetricsRegistry, TimeSeriesStore
from repro.obs.anomaly import _mad, _median
from repro.obs.prom import Histogram
from tests.obs.test_prom import set_counter


def _gauge_store(values, name="g") -> TimeSeriesStore:
    store = TimeSeriesStore()
    for i, v in enumerate(values):
        reg = MetricsRegistry()
        reg.gauge(name, "h").set(v)
        store.scrape(reg, now=float(i))
    return store


def _steady_with_spike(n=40, spike_at=25, level=2.0, spike=200.0):
    values = [level + 0.01 * (i % 3) for i in range(n)]
    values[spike_at] = spike
    return values


class TestDetection:
    def test_spike_fires_exactly_once(self):
        det = AnomalyDetector(warmup=8, window=16)
        events = det.scan(_gauge_store(_steady_with_spike()))
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == "spike" and ev.series == "g" and ev.t == 25.0
        assert ev.value == 200.0 and ev.value > ev.upper

    def test_drop_detected(self):
        values = [10.0 + 0.01 * (i % 2) for i in range(40)]
        values[30] = -50.0
        det = AnomalyDetector(warmup=8, window=16)
        events = det.scan(_gauge_store(values))
        # The drop alarms first; the recovery back to baseline may alarm
        # a few more times while the deflated EWMA re-adapts, but the
        # baseline must converge well before the series ends.
        assert events and events[0].kind == "drop" and events[0].t == 30.0
        assert all(30.0 <= e.t <= 36.0 for e in events)

    def test_steady_series_never_alarms(self):
        det = AnomalyDetector()
        assert det.scan(_gauge_store([5.0] * 200)) == []
        # Float dust around a constant must stay inside the floor.
        dusty = [5.0 + 1e-12 * (i % 7) for i in range(200)]
        assert det.scan(_gauge_store(dusty, name="dust")) == []

    def test_warmup_suppresses_early_points(self):
        # The spike lands before warmup completes: no event, but the
        # baseline absorbs it and later normal points stay quiet.
        values = _steady_with_spike(n=20, spike_at=3)
        det = AnomalyDetector(warmup=16, window=16)
        assert det.scan(_gauge_store(values)) == []

    def test_incremental_scans_see_each_point_once(self):
        store = TimeSeriesStore()
        det = AnomalyDetector(warmup=8, window=16)
        values = _steady_with_spike()
        for i, v in enumerate(values):
            reg = MetricsRegistry()
            reg.gauge("g", "h").set(v)
            store.scrape(reg, now=float(i))
            det.scan(store)
        assert det.points_seen == len(values)
        assert len(det.events) == 1

    def test_counter_observed_as_per_scrape_delta(self):
        store = TimeSeriesStore()
        total = 0.0
        for i in range(40):
            total += 5.0 if i != 30 else 500.0  # one burst in the rate
            reg = MetricsRegistry()
            set_counter(reg, "c_total", total)
            store.scrape(reg, now=float(i))
        det = AnomalyDetector(warmup=8, window=16)
        events = det.scan(store)
        assert [e.kind for e in events] == ["spike"]
        assert events[0].value == 500.0  # the delta, not the raw total

    def test_bucket_series_skipped(self):
        store = TimeSeriesStore()
        for i in range(40):
            reg = MetricsRegistry()
            h = reg.register(Histogram("lat", "h", buckets=(1.0, 2.0)))
            for _ in range(1 if i != 30 else 500):
                h.observe(0.5)
            store.scrape(reg, now=float(i))
        det = AnomalyDetector(warmup=8, window=16)
        events = det.scan(store)
        assert all(not e.series.endswith("_bucket") for e in events)
        # The _count series still alarms on the burst.
        assert any(e.series == "lat_count" for e in events)

    def test_ring_eviction_resynchronizes_without_alarm(self):
        store = TimeSeriesStore(capacity=8)
        det = AnomalyDetector(warmup=4, window=8)
        total = 0.0
        for i in range(6):
            total += 5.0
            reg = MetricsRegistry()
            set_counter(reg, "c_total", total)
            store.scrape(reg, now=float(i))
        det.scan(store)
        # 20 more scrapes outrun the capacity-8 ring between scans.
        for i in range(6, 26):
            total += 5.0
            reg = MetricsRegistry()
            set_counter(reg, "c_total", total)
            store.scrape(reg, now=float(i))
        assert det.scan(store) == []  # gap deltas are meaningless, not alarms


#: Window values: a few shared levels (ties, flat runs) or finite floats
#: spread over 16 decades either side of zero.
_levels = st.sampled_from([-2.5, -1.0, 0.0, 1.0, 3.0, 1.0e-8, 7.0e7])
_spread = st.builds(
    lambda sign, mantissa, exp: sign * mantissa * 10.0 ** exp,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(min_value=-8, max_value=8),
)


class TestSelectedMad:
    @settings(max_examples=400, deadline=None)
    @example(values=[1.0, 1.0, 2.0, 2.0])  # even, ties on both sides
    @example(values=[0.0, 5.0])
    @example(values=[-3.0, 1.0, 1.0, 1.0, 9.0])  # odd, median tied
    @given(values=st.lists(st.one_of(_levels, _spread), min_size=1, max_size=64))
    def test_observe_mad_is_the_sorted_reference(self, values):
        """``AnomalyDetector._observe`` scales its band by ``_mad``: for
        any ascending window of up to 64 finite floats it is bit for bit
        the median of the sorted absolute deviations."""
        ordered = sorted(values)
        m = _median(ordered)
        reference = _median(sorted(abs(v - m) for v in ordered))
        got = _mad(ordered)
        assert got == reference and math.copysign(1.0, got) == math.copysign(1.0, reference)


class TestWiring:
    def test_listeners_receive_events(self):
        seen = []
        det = AnomalyDetector(warmup=8, window=16)
        det.on_anomaly(seen.append)
        det.scan(_gauge_store(_steady_with_spike()))
        assert len(seen) == 1 and isinstance(seen[0], AnomalyEvent)

    def test_event_round_trips_as_dict(self):
        det = AnomalyDetector(warmup=8, window=16)
        (event,) = det.scan(_gauge_store(_steady_with_spike()))
        doc = event.as_dict()
        assert doc["series"] == "g" and doc["kind"] == "spike"

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            AnomalyDetector(alpha=0.0)
        with pytest.raises(ValueError):
            AnomalyDetector(k=-1.0)
        with pytest.raises(ValueError):
            AnomalyDetector(warmup=1)

    def test_service_bus_counts_anomalies(self):
        from repro.service.broker import ServiceConfig, run_trace
        from repro.service.loadgen import TrafficSpec, generate_trace

        trace = generate_trace(TrafficSpec(n_requests=24, seed=7))
        store = TimeSeriesStore(cadence_s=0.25)
        det = AnomalyDetector()
        broker, _ = run_trace(
            trace, ServiceConfig(n_service_workers=2), tsdb=store, anomaly=det
        )
        assert broker.telemetry.anomalies == len(det.events)
        assert broker.report()["anomalies"] == len(det.events)

    def test_scraping_is_pure_observation(self):
        from repro.service.broker import ServiceConfig, run_trace
        from repro.service.loadgen import TrafficSpec, generate_trace

        trace = generate_trace(TrafficSpec(n_requests=24, seed=7))
        cfg = ServiceConfig(n_service_workers=2)
        bare, _ = run_trace(trace, cfg)
        scraped, _ = run_trace(
            trace, cfg, tsdb=TimeSeriesStore(cadence_s=0.25)
        )
        bare_report = bare.report()
        scraped_report = scraped.report()
        assert bare_report == scraped_report
