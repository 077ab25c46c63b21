"""Deterministic static HTML dashboards over the time-series store.

One self-contained HTML file — inline SVG line charts, inline CSS, no
external assets, no scripts — rendered from a
:class:`~repro.obs.tsdb.TimeSeriesStore` by evaluating one query per
panel at every scrape time.  Determinism is a contract, not an
accident: the same store renders byte-identical HTML (fixed palette,
fixed ``%g``-style float formatting, sorted iteration everywhere, no
wall-clock timestamps), which is what lets a golden-file test pin the
output and CI archive dashboards as comparable build artifacts.

Annotations ride the charts: SLO transitions draw dashed vertical rules
(red for ``firing``, green for resolution) and anomaly events draw
orange markers, each listed in an annotation table under the panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.obs.query import QueryEngine, QueryError, Sample
from repro.obs.tsdb import TimeSeriesStore

__all__ = ["Panel", "SERVICE_PANELS", "render_dashboard"]


@dataclass(frozen=True)
class Panel:
    """One chart: a title, a query, and an axis unit."""

    title: str
    expr: str
    unit: str = ""


#: The service-run default layout: utilization, per-lane latency
#: quantiles, request rates, cache/lattice/plan hit rates, batch width,
#: queue depth.  Panels whose metrics a store lacks render "no data"
#: rather than failing, so the same layout serves partial stores.
SERVICE_PANELS: tuple[Panel, ...] = (
    Panel(
        "Device utilization (1 - idle rate)",
        '1 - rate(repro_device_load_residency_seconds{load="0"}[2s])',
    ),
    Panel(
        "Request latency p95 per lane",
        "histogram_quantile(0.95, repro_request_latency_seconds_bucket)",
        "s",
    ),
    Panel(
        "Completed request rate per lane",
        'rate(repro_requests_total{outcome="computed"}[2s])',
        "req/s",
    ),
    Panel("Spectrum cache hit ratio", "repro_spectrum_cache_hit_ratio"),
    Panel("Plan cache hit ratio", "repro_plan_cache_hit_ratio"),
    Panel("Lattice hit ratio", "repro_approx_lattice_hit_ratio"),
    Panel(
        "Mean megabatch width",
        "repro_batch_width_sum / repro_batch_width_count",
        "temperatures",
    ),
    Panel("Queue depth", "repro_queue_depth"),
)

# A fixed, order-stable palette (Okabe-Ito-ish, readable on white).
_PALETTE = (
    "#0072b2",
    "#d55e00",
    "#009e73",
    "#cc79a7",
    "#e69f00",
    "#56b4e9",
    "#f0e442",
    "#000000",
)

_W, _H = 640, 150
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 54, 10, 8, 20


def _fmt(value: float) -> str:
    """Fixed float formatting for axes, legends, and annotations."""
    if value != value:  # NaN
        return "nan"
    return f"{value:.6g}"


def _auto_panels(store: TimeSeriesStore, limit: int = 12) -> tuple[Panel, ...]:
    """One panel per scraped family when no layout is given.

    Histogram families chart their ``_count`` growth; everything else
    charts raw values.  Used by ``spectrum``/``bench`` dashboards whose
    registries are not the service layout.
    """
    panels = []
    for name in sorted(store.families):
        kind = store.families[name]
        if kind == "histogram":
            continue
        if name.endswith(("_bucket",)):
            continue
        panels.append(Panel(name, name))
        if len(panels) >= limit:
            break
    return tuple(panels)


def _svg_chart(
    times: Sequence[float],
    lines: Mapping[str, list[tuple[float, float]]],
    vlines: Sequence[tuple[float, str, str]],
    unit: str,
) -> str:
    """One inline SVG line chart.

    ``lines`` maps legend label -> points; ``vlines`` holds
    ``(t, color, dash)`` annotation rules.
    """
    t0, t1 = times[0], times[-1]
    span_t = (t1 - t0) or 1.0
    values = [v for pts in lines.values() for _, v in pts]
    lo = min(values)
    hi = max(values)
    if hi == lo:
        hi = lo + 1.0
    span_v = hi - lo

    def x(t: float) -> float:
        return _PAD_L + (t - t0) / span_t * (_W - _PAD_L - _PAD_R)

    def y(v: float) -> float:
        return _PAD_T + (hi - v) / span_v * (_H - _PAD_T - _PAD_B)

    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" width="{_W}" height="{_H}" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    # Frame and gridlines.
    x0, x1 = _PAD_L, _W - _PAD_R
    y0, y1 = _H - _PAD_B, _PAD_T
    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="#fcfcfc" stroke="#ccc"/>'
    )
    mid = (y0 + y1) / 2.0
    parts.append(
        f'<line x1="{x0}" y1="{mid:.1f}" x2="{x1}" y2="{mid:.1f}" '
        'stroke="#eee"/>'
    )
    # Axis labels: value range and time range.
    parts.append(
        f'<text x="{x0 - 4}" y="{y1 + 10}" text-anchor="end" '
        f'class="ax">{_fmt(hi)}</text>'
    )
    parts.append(
        f'<text x="{x0 - 4}" y="{y0}" text-anchor="end" '
        f'class="ax">{_fmt(lo)}</text>'
    )
    parts.append(
        f'<text x="{x0}" y="{_H - 6}" class="ax">t={_fmt(t0)}s</text>'
    )
    parts.append(
        f'<text x="{x1}" y="{_H - 6}" text-anchor="end" '
        f'class="ax">t={_fmt(t1)}s{(" [" + unit + "]") if unit else ""}</text>'
    )
    # Annotation rules behind the data.
    for t, color, dash in vlines:
        if t0 <= t <= t1:
            parts.append(
                f'<line x1="{x(t):.1f}" y1="{y1}" x2="{x(t):.1f}" y2="{y0}" '
                f'stroke="{color}" stroke-dasharray="{dash}"/>'
            )
    for i, label in enumerate(lines):
        color = _PALETTE[i % len(_PALETTE)]
        pts = lines[label]
        coords = " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        last = pts[-1][1]
        parts.append(
            f'<circle cx="{x(pts[-1][0]):.1f}" cy="{y(last):.1f}" r="2" '
            f'fill="{color}"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _legend(lines: Mapping[str, list[tuple[float, float]]]) -> str:
    items = []
    for i, label in enumerate(lines):
        color = _PALETTE[i % len(_PALETTE)]
        last = lines[label][-1][1]
        items.append(
            f'<span class="key"><span class="swatch" '
            f'style="background:{color}"></span>{_esc(label)} = '
            f"{_fmt(last)}</span>"
        )
    return "<div class='legend'>" + " ".join(items) + "</div>"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _line_label(sample: Sample) -> str:
    if not sample.labels:
        return "value"
    return ",".join(f"{k}={v}" for k, v in sample.labels)


_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 16px; color: #222; background: #fff; }
h1 { font-size: 16px; } h2 { font-size: 13px; margin: 18px 0 4px; }
.expr { color: #777; font-size: 11px; margin: 0 0 4px; }
.ax { font-size: 9px; fill: #888; font-family: inherit; }
.legend { font-size: 11px; margin: 2px 0 10px; }
.key { margin-right: 14px; }
.swatch { display: inline-block; width: 9px; height: 9px;
          margin-right: 4px; }
.nodata { color: #999; font-size: 12px; margin: 8px 0 14px; }
table { border-collapse: collapse; font-size: 11px; margin-top: 6px; }
td, th { border: 1px solid #ddd; padding: 2px 8px; text-align: left; }
.firing { color: #c0392b; } .resolved { color: #1e8449; }
.anomaly { color: #d35400; }
"""


def render_dashboard(
    store: TimeSeriesStore,
    panels: Optional[Iterable[Panel]] = None,
    title: str = "repro telemetry",
    slo=None,
    anomalies: Sequence = (),
) -> str:
    """Render one store to self-contained HTML.

    ``panels`` defaults to :data:`SERVICE_PANELS` when the store holds
    service metrics, else one auto-panel per scraped family.  ``slo``
    (an :class:`~repro.obs.slo.SLOEngine`) contributes transition
    annotations; ``anomalies`` is an iterable of
    :class:`~repro.obs.anomaly.AnomalyEvent`.
    """
    if panels is None:
        if "repro_requests_total" in store.families:
            panels = SERVICE_PANELS
        else:
            panels = _auto_panels(store)
    panels = tuple(panels)
    engine = QueryEngine(store)
    times = list(store.scrape_times)

    transitions = list(slo.transitions) if slo is not None else []
    vlines: list[tuple[float, str, str]] = []
    for tr in transitions:
        if tr.to == "firing":
            vlines.append((tr.t, "#c0392b", "4 3"))
        elif tr.frm == "firing":
            vlines.append((tr.t, "#1e8449", "4 3"))
    for event in anomalies:
        vlines.append((event.t, "#d35400", "2 3"))

    out = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8"/>',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class='expr'>{len(store.series())} series, "
        f"{len(times)} scrapes"
        + (
            f", t = {_fmt(times[0])}s .. {_fmt(times[-1])}s"
            if times
            else ""
        )
        + "</p>",
    ]

    rendered = 0
    for panel in panels:
        out.append(f"<h2>{_esc(panel.title)}</h2>")
        out.append(f"<p class='expr'>{_esc(panel.expr)}</p>")
        lines: dict[str, list[tuple[float, float]]] = {}
        try:
            ast = engine.compile(panel.expr)
            for t in times:
                result = engine.query_ast(ast, at=t)
                if isinstance(result, float):
                    result = [Sample((), result)]
                for sample in result:
                    lines.setdefault(_line_label(sample), []).append(
                        (t, sample.value)
                    )
        except QueryError as exc:
            out.append(f"<p class='nodata'>query error: {_esc(str(exc))}</p>")
            continue
        lines = {k: lines[k] for k in sorted(lines)}
        if not lines or not times:
            out.append("<p class='nodata'>no data</p>")
            continue
        out.append(_svg_chart(times, lines, vlines, panel.unit))
        out.append(_legend(lines))
        rendered += 1

    annotations = bool(transitions) or bool(anomalies)
    if annotations:
        out.append("<h2>Annotations</h2>")
        out.append("<table><tr><th>t (s)</th><th>kind</th><th>detail</th></tr>")
        rows = []
        for tr in transitions:
            cls = "firing" if tr.to == "firing" else "resolved"
            rows.append(
                (
                    tr.t,
                    f"<tr class='{cls}'><td>{_fmt(tr.t)}</td>"
                    f"<td>slo {_esc(tr.frm)} &rarr; {_esc(tr.to)}</td>"
                    f"<td>{_esc(tr.rule)} (value {_fmt(tr.value)})</td></tr>",
                )
            )
        for event in anomalies:
            lbl = ",".join(
                f"{k}={v}" for k, v in sorted(event.labels.items())
            )
            rows.append(
                (
                    event.t,
                    f"<tr class='anomaly'><td>{_fmt(event.t)}</td>"
                    f"<td>anomaly {_esc(event.kind)}</td>"
                    f"<td>{_esc(event.series)}{{{_esc(lbl)}}} = "
                    f"{_fmt(event.value)} outside "
                    f"[{_fmt(event.lower)}, {_fmt(event.upper)}]</td></tr>",
                )
            )
        for _, row in sorted(rows, key=lambda r: r[0]):
            out.append(row)
        out.append("</table>")

    out.append(
        f"<p class='expr'>{rendered}/{len(panels)} panels rendered"
        + (", annotations listed" if annotations else "")
        + "</p>"
    )
    out.append("</body></html>")
    return "\n".join(out) + "\n"
