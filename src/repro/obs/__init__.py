"""Unified observability: spans, event buses, trace and metric exports.

One substrate for the whole stack — broker -> runner -> device — on the
shared virtual clock.  Recording: :mod:`~repro.obs.tracer` (the span
tracer and its zero-cost :data:`NULL_TRACER`) and :mod:`~repro.obs.bus`
(fan-out keeping the metrics ledgers consumers of the same stream).
Folding: :mod:`~repro.obs.attribution` (fair-share request costs at
exact conservation, the online EWMA :class:`CostModel`) and
:mod:`~repro.obs.profile` (self/total tables, utilization, critical
paths, flamegraphs).  Exporting and storing: :mod:`~repro.obs.export`
(Chrome trace JSON, terminal views), :mod:`~repro.obs.prom` (registry
and exposition) and :mod:`~repro.obs.tsdb` (ring-buffer series store).
Reading: :mod:`~repro.obs.query` (a PromQL subset),
:mod:`~repro.obs.slo` (rules with ``for:`` hysteresis and burn rates),
:mod:`~repro.obs.anomaly` (EWMA + MAD bands), :mod:`~repro.obs.flight`
(postmortem bundles) and :mod:`~repro.obs.dash` (HTML dashboards).
"""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.obs.anomaly": ("AnomalyDetector", "AnomalyEvent"),
    "repro.obs.attribution": (
        "Attribution", "AttributionResult", "CostEntry", "CostModel", "kernel_root_map",
        "render_cost_report",
    ),
    "repro.obs.bus": ("RunBus", "ServiceBus"),
    "repro.obs.dash": ("Panel", "SERVICE_PANELS", "render_dashboard"),
    "repro.obs.flight": ("FlightRecorder",),
    "repro.obs.export": (
        "render_gantt", "render_summary", "to_chrome", "validate_chrome_trace",
        "write_chrome_trace",
    ),
    "repro.obs.profile": ("Profile", "render_profile", "to_collapsed", "write_collapsed"),
    "repro.obs.prom": ("Counter", "Gauge", "Histogram", "MetricsRegistry", "parse_exposition"),
    "repro.obs.query": ("QueryEngine", "QueryError", "Sample", "parse_query"),
    "repro.obs.slo": ("Rule", "RuleState", "SLOEngine", "Transition"),
    "repro.obs.tracer": ("NULL_TRACER", "EventTracer", "NullTracer", "WallClock"),
    "repro.obs.tsdb": ("NULL_TSDB", "NullTimeSeriesStore", "Series", "TimeSeriesStore"),
})
