"""SLO-triggered flight recorder: postmortem bundles from a live run.

When an SLO rule enters ``firing`` mid-run, the interesting evidence —
the trailing trace window, the per-request cost ledger, the cost model's
current beliefs — is exactly what a postmortem needs and exactly what is
gone by the time anyone looks.  :class:`FlightRecorder` arms the
:meth:`~repro.obs.slo.SLOEngine.on_transition` hook and dumps a bundle
directory the moment a rule fires:

- ``trace.json`` — Chrome trace-event JSON of the trailing window
  (``window_s`` virtual seconds before the firing instant), flow arrows
  included, loadable in Perfetto;
- ``cost_ledger.json`` — the :class:`~repro.obs.attribution.AttributionResult`
  snapshot (per-request fair-share costs, conservation ratio);
- ``cost_model.json`` — the serialized online cost model;
- ``series.json`` — the trailing window of the broker's scraped time
  series (when a :class:`~repro.obs.tsdb.TimeSeriesStore` is attached),
  the exact delta-encoded store format ``repro query`` reads;
- ``slo_report.txt`` — the engine's rule table and transition log;
- ``manifest.json`` — what fired, when, and what the bundle holds.

:meth:`arm_anomalies` additionally subscribes the recorder to an
:class:`~repro.obs.anomaly.AnomalyDetector`, so an out-of-band series
(a latency spike, a utilization collapse) dumps a bundle even when no
SLO rule is registered for it.

Bundles are bounded (``limit``) so a flapping rule cannot fill a disk;
:meth:`dump` can also be called directly for an on-demand snapshot.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace
from typing import Optional

from repro.obs.export import write_chrome_trace
from repro.obs.slo import RuleState, Transition

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Dumps postmortem bundles when SLO rules start firing.

    Bind it to a broker (for the tracer, cost ledger, and cost model)
    and :meth:`arm` it on the run's SLO engine.  Each
    ``pending -> firing`` transition writes one bundle directory under
    ``out_dir``; the paths land in :attr:`bundles`.
    """

    def __init__(
        self,
        broker,
        out_dir: str,
        window_s: float = 10.0,
        limit: int = 8,
    ) -> None:
        if not window_s > 0.0:  # NaN too
            raise ValueError(f"window_s must be positive, got {window_s}")
        if limit < 1:
            raise ValueError("limit must be at least 1")
        self.broker = broker
        self.out_dir = out_dir
        self.window_s = window_s
        self.limit = limit
        self.bundles: list[str] = []
        self._engine = None

    def arm(self, engine) -> "FlightRecorder":
        """Subscribe to the engine's transitions; returns self."""
        engine.on_transition(self._on_transition)
        self._engine = engine
        return self

    def arm_anomalies(self, detector) -> "FlightRecorder":
        """Subscribe to a detector's anomaly events; returns self."""
        detector.on_anomaly(self._on_anomaly)
        return self

    def _on_transition(self, tr: Transition) -> None:
        if tr.to == RuleState.FIRING and len(self.bundles) < self.limit:
            self.dump(reason=tr)

    def _on_anomaly(self, event) -> None:
        if len(self.bundles) < self.limit:
            self.dump(reason=event)

    # ------------------------------------------------------------------
    def _trailing_events(self, now: float) -> list:
        """Events overlapping the trailing window.

        An async ``e`` inside the window keeps its ``b`` even when that
        begin predates the window — otherwise the cut would fabricate
        end-without-begin pairs.  Requests still open at the firing
        instant appear as unmatched ``b`` events: that is the honest
        shape of an in-flight request, and usually the evidence the
        postmortem is for.
        """
        tracer = self.broker.tracer
        events = getattr(tracer, "events", None)
        if not events:
            return []
        horizon = now - self.window_s
        ended_in_window = {
            (ev.cat, ev.id)
            for ev in events
            if ev.ph == "e" and ev.ts + ev.dur >= horizon
        }
        return [
            ev
            for ev in events
            if ev.ts + ev.dur >= horizon
            or (ev.ph == "b" and (ev.cat, ev.id) in ended_in_window)
        ]

    def dump(self, reason=None) -> str:
        """Write one bundle now; returns its directory path.

        ``reason`` is either an SLO :class:`~repro.obs.slo.Transition`
        or an :class:`~repro.obs.anomaly.AnomalyEvent` (or None for an
        on-demand snapshot).
        """
        now = self.broker.clock.now
        name = f"postmortem-{len(self.bundles):03d}"
        if isinstance(reason, Transition):
            name += f"-{reason.rule}"
        elif reason is not None:
            name += f"-{reason.series}"
        path = os.path.join(self.out_dir, name)
        os.makedirs(path, exist_ok=True)
        files: list[str] = []

        tracer = self.broker.tracer
        trailing = self._trailing_events(now)
        n_events = 0
        if trailing:
            window = SimpleNamespace(tracks=tracer.tracks, events=trailing)
            n_events = write_chrome_trace(os.path.join(path, "trace.json"), window)
            files.append("trace.json")

        result = (
            self.broker.cost_report()
            if hasattr(self.broker, "cost_report")
            else None
        )
        if result is not None:
            with open(os.path.join(path, "cost_ledger.json"), "w") as fh:
                json.dump(result.as_dict(), fh, indent=1)
            files.append("cost_ledger.json")

        model = getattr(self.broker, "cost_model", None)
        if model is not None:
            with open(os.path.join(path, "cost_model.json"), "w") as fh:
                json.dump(model.to_dict(), fh, indent=1)
            files.append("cost_model.json")

        n_points = 0
        tsdb = getattr(self.broker, "tsdb", None)
        if tsdb is not None and tsdb.enabled and len(tsdb):
            doc = tsdb.to_dict(since=now - self.window_s)
            if doc["series"]:
                with open(os.path.join(path, "series.json"), "w") as fh:
                    json.dump(doc, fh)
                files.append("series.json")
                n_points = sum(len(s["t"]) for s in doc["series"])

        if self._engine is not None:
            with open(os.path.join(path, "slo_report.txt"), "w") as fh:
                fh.write(self._engine.report() + "\n")
            files.append("slo_report.txt")

        if reason is None:
            reason_doc = None
        elif isinstance(reason, Transition):
            reason_doc = {
                "rule": reason.rule,
                "from": reason.frm,
                "to": reason.to,
                "value": reason.value,
                "t": reason.t,
            }
        else:
            reason_doc = reason.as_dict()

        manifest = {
            "virtual_time_s": now,
            "window_s": self.window_s,
            "files": files,
            "trace_events": n_events,
            "series_points": n_points,
            "reason": reason_doc,
        }
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
        self.bundles.append(path)
        return path
