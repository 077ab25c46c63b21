"""Event buses: one ingestion point, ledgers and tracer as consumers.

Before this layer existed the accounting was split across two
unconnected ledgers — :class:`~repro.core.metrics.MetricsLedger` for
tasks and :class:`~repro.service.telemetry.ServiceTelemetry` for
requests — each fed by direct hook calls from the scheduler and the
broker.  The buses invert that: instrumented code emits each semantic
event *once*, and the bus fans it out to every consumer — the ledger
(which keeps its public hook API and produces bit-identical figures)
and, when tracing is on, the span tracer (counter tracks for loads and
queue depths, instants for admission outcomes).

Both buses duck-type the hook surface of the ledger they wrap, so the
scheduler and broker call the same ``on_*`` methods they always did —
handing them a bare ledger (as every existing test does) still works,
because a ledger *is* a valid sink for its own hook API.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.tracer import NULL_TRACER

__all__ = ["RunBus", "ServiceBus"]


class RunBus:
    """Fan-out for one hybrid batch's task-level events.

    Exposes the :class:`~repro.core.metrics.MetricsLedger` hook API; the
    scheduler and runner call it exactly as they would the ledger.  Load
    changes additionally feed a per-device counter track so Perfetto
    shows each GPU's queue occupancy as a filled series: LOAD rows, or
    with ``load_rows=False`` the runner's ALLOC and END rows carry them.
    """

    __slots__ = (
        "ledger", "tracer", "device_tracks", "on_load_change", "on_cpu_task",
        "on_admission_revoked", "on_task_timing", "on_steal", "on_prediction",
    )

    def __init__(self, ledger, tracer=None, device_tracks: Sequence[int] = (),
                 load_rows: bool = True) -> None:
        self.ledger = ledger
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.device_tracks = tuple(device_tracks)
        # The hook surface is bound once: hooks with nothing to trace are
        # the ledger's own methods, and with tracing off so are the rest —
        # no fan-out frame between the scheduler and the ledger.
        self.on_cpu_task = ledger.on_cpu_task
        self.on_task_timing = ledger.on_task_timing
        self.on_prediction = ledger.on_prediction
        if self.tracer.enabled:
            self.on_load_change = (
                self._traced_load_change if load_rows else ledger.on_load_change
            )
            self.on_admission_revoked = self._traced_admission_revoked
            self.on_steal = self._traced_steal
        else:
            self.on_load_change = ledger.on_load_change
            self.on_admission_revoked = ledger.on_admission_revoked
            self.on_steal = ledger.on_steal

    # -- MetricsLedger hooks that also feed the tracer -------------------
    def _traced_load_change(self, device: int, old: int, new: int, now: float) -> None:
        self.ledger.on_load_change(device, old, new, now)
        if device < len(self.device_tracks):
            # ``now`` is the clock reading the scheduler already holds.
            self.tracer.load(self.device_tracks[device], now, new)

    def _traced_admission_revoked(self, device: int) -> None:
        self.ledger.on_admission_revoked(device)
        if device < len(self.device_tracks):
            self.tracer.instant(
                self.device_tracks[device], "admission.revoked", cat="sched"
            )

    def _traced_steal(self, victim: int, thief: int) -> None:
        self.ledger.on_steal(victim, thief)
        if thief < len(self.device_tracks):
            self.tracer.instant(
                self.device_tracks[thief],
                "steal",
                cat="sched",
                args={"victim": victim},
            )


class ServiceBus:
    """Fan-out for request-level events on one broker.

    Exposes the :class:`~repro.service.telemetry.ServiceTelemetry` hook
    API; arrivals, rejections, and retries mirror to instants on the
    lane tracks, queue depth to a counter track.
    """

    __slots__ = (
        "telemetry", "tracer", "queue_track", "lane_tracks", "on_arrival",
        "on_completion", "on_batch", "finalize",
    )

    def __init__(
        self, telemetry, tracer=None, queue_track: int = 0, lane_tracks=None
    ) -> None:
        self.telemetry = telemetry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.queue_track = queue_track
        self.lane_tracks = dict(lane_tracks or {})
        # Hooks with nothing to trace are the ledger's own methods.
        self.on_arrival = telemetry.on_arrival
        self.on_completion = telemetry.on_completion
        self.on_batch = telemetry.on_batch
        self.finalize = telemetry.finalize

    def _lane_track(self, lane: str) -> int:
        return self.lane_tracks.get(lane, self.queue_track)

    # -- ServiceTelemetry hook surface ---------------------------------
    def on_rejection(self, lane: str) -> None:
        self.telemetry.on_rejection(lane)
        t = self.tracer
        if t.enabled:
            t.instant(self._lane_track(lane), "rejected", cat="admission")

    def on_retry(self, lane: str) -> None:
        self.telemetry.on_retry(lane)
        t = self.tracer
        if t.enabled:
            t.instant(self._lane_track(lane), "retry", cat="admission")

    def on_queue_depth(self, depth: int, now: float) -> None:
        self.telemetry.on_queue_depth(depth, now)
        t = self.tracer
        if t.enabled:
            t.counter(self.queue_track, "queue_depth", depth)

    def on_megabatch(self, widths: Sequence[int]) -> None:
        self.telemetry.on_megabatch(list(widths))
        t = self.tracer
        if t.enabled:
            t.instant(
                self.queue_track,
                "megabatch.assembled",
                cat="batch",
                args={"groups": len(widths), "widths": list(widths)},
            )

    def on_window_wait(self) -> None:
        self.telemetry.on_window_wait()
        t = self.tracer
        if t.enabled:
            t.instant(self.queue_track, "batch.window_wait", cat="batch")

    def on_anomaly(self, event) -> None:
        """An :class:`~repro.obs.anomaly.AnomalyEvent` from the detector."""
        self.telemetry.on_anomaly(event)
        t = self.tracer
        if t.enabled:
            t.instant(
                self.queue_track,
                "anomaly",
                cat="anomaly",
                args=event.as_dict(),
            )
