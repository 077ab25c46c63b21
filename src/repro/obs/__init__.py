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

from repro.obs.anomaly import AnomalyDetector, AnomalyEvent

from repro.obs.attribution import (
    Attribution,
    AttributionResult,
    CostEntry,
    CostModel,
    kernel_root_map,
    render_cost_report,
)
from repro.obs.bus import RunBus, ServiceBus
from repro.obs.dash import Panel, SERVICE_PANELS, render_dashboard
from repro.obs.flight import FlightRecorder
from repro.obs.export import (
    render_gantt,
    render_summary,
    to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profile import (
    Profile,
    render_profile,
    to_collapsed,
    write_collapsed,
)
from repro.obs.prom import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)
from repro.obs.query import QueryEngine, QueryError, Sample, parse_query
from repro.obs.slo import Rule, RuleState, SLOEngine, Transition
from repro.obs.tracer import NULL_TRACER, EventTracer, NullTracer, WallClock
from repro.obs.tsdb import NULL_TSDB, NullTimeSeriesStore, Series, TimeSeriesStore

__all__ = [
    "AnomalyDetector",
    "AnomalyEvent",
    "Attribution",
    "AttributionResult",
    "CostEntry",
    "CostModel",
    "Counter",
    "EventTracer",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NULL_TSDB",
    "NullTimeSeriesStore",
    "NullTracer",
    "Panel",
    "Profile",
    "QueryEngine",
    "QueryError",
    "Rule",
    "RuleState",
    "RunBus",
    "SERVICE_PANELS",
    "SLOEngine",
    "Sample",
    "Series",
    "ServiceBus",
    "TimeSeriesStore",
    "Transition",
    "WallClock",
    "kernel_root_map",
    "parse_query",
    "render_dashboard",
    "parse_exposition",
    "render_cost_report",
    "render_gantt",
    "render_profile",
    "render_summary",
    "to_chrome",
    "to_collapsed",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_collapsed",
]
