"""Dashboard renderer: deterministic, self-contained, annotated HTML."""

import os

import pytest

from repro.obs import (
    AnomalyDetector,
    MetricsRegistry,
    Panel,
    Rule,
    SERVICE_PANELS,
    SLOEngine,
    TimeSeriesStore,
    render_dashboard,
)
from tests.obs.test_prom import set_counter

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_dash.html")


def _canned_store() -> TimeSeriesStore:
    """A small deterministic store: counter, gauge, histogram over 12 scrapes."""
    store = TimeSeriesStore()
    for i in range(12):
        reg = MetricsRegistry()
        set_counter(reg, "reqs_total", 3.0 * i, lane="a")
        reg.gauge("depth", "h").set(float((i * 5) % 7))
        h = reg.histogram("lat", "h", buckets=(0.5, 1.0, 2.0))
        for j in range(i):
            h.observe(0.1 + 0.2 * (j % 9))
        store.scrape(reg, now=0.5 * i)
    return store


def _render() -> str:
    store = _canned_store()
    slo = SLOEngine((Rule(name="deep", metric="depth", op=">", threshold=4.0),))
    for t in (0.0, 2.0, 4.0):
        # Re-sample the stored gauge states to produce transitions.
        reg = MetricsRegistry()
        point = store.get("depth").latest_at(t)
        reg.gauge("depth", "h").set(point[1])
        slo.sample(reg, now=t)
    detector = AnomalyDetector(warmup=4, window=8)
    detector.scan(store)
    panels = (
        Panel("Request rate", "rate(reqs_total[2s])", unit="req/s"),
        Panel("Queue depth", "depth"),
        Panel("p95 latency", "histogram_quantile(0.95, lat_bucket)", unit="s"),
        Panel("Broken query", "rate(nope"),
        Panel("No data", "absent_metric"),
    )
    return render_dashboard(
        store,
        panels=panels,
        title="golden dashboard",
        slo=slo,
        anomalies=detector.events,
    )


class TestRenderer:
    def test_render_is_deterministic(self):
        assert _render() == _render()

    def test_matches_golden_file(self):
        html = _render()
        if not os.path.exists(GOLDEN):  # pragma: no cover - regeneration aid
            with open(GOLDEN, "w") as fh:
                fh.write(html)
            pytest.fail(f"golden file was missing; wrote {GOLDEN} — rerun")
        with open(GOLDEN) as fh:
            assert html == fh.read(), (
                "dashboard HTML drifted from tests/obs/golden_dash.html; "
                "if intentional, delete the golden file and rerun this test"
            )

    def test_self_contained(self):
        html = _render()
        assert html.startswith("<!DOCTYPE html>")
        # No scripts, no external fetches (the SVG xmlns is a namespace
        # identifier, not a network reference).
        for forbidden in ("<script", "src=", "href=", "@import", "url("):
            assert forbidden not in html
        assert "<svg" in html

    def test_panels_render_data_errors_and_gaps(self):
        html = _render()
        assert "Request rate" in html and "req/s" in html
        assert "query error" in html  # the broken panel degrades gracefully
        assert "no data" in html  # the absent-series panel
        assert "3/5 panels rendered" in html

    def test_annotations_present(self):
        html = _render()
        assert "Annotations" in html
        assert "slo" in html  # the depth rule fires at t=2 (value 5 > 4)

    def test_default_service_panels(self):
        # A non-service store falls back to auto-panels, one per family.
        html = render_dashboard(_canned_store())
        assert "reqs_total" in html and "depth" in html
        assert len(SERVICE_PANELS) >= 6

    def test_escaping(self):
        store = TimeSeriesStore()
        reg = MetricsRegistry()
        reg.gauge("g", "h", ("q",)).set(1.0, q='<&">')
        store.scrape(reg, now=0.0)
        store.scrape(reg, now=1.0)
        html = render_dashboard(store, title="<title> & co")
        assert "<title> & co" not in html
        assert "&lt;title&gt; &amp; co" in html


class TestFederatedDashboard:
    def test_node_labels_render(self):
        """A cluster's series, told apart by a ``node`` label, draw one
        legend entry per node."""
        store = TimeSeriesStore()
        for i in range(4):
            reg = MetricsRegistry()
            depth = reg.gauge("depth", "h", ("node",))
            for node in range(3):
                depth.set(float(i + node), node=str(node))
            store.scrape(reg, now=float(i))
        html = render_dashboard(store, title="cluster")
        for node in ("0", "1", "2"):
            assert f"node={node}" in html
