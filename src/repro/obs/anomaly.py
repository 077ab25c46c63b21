"""Online anomaly detection over scraped series: EWMA + MAD bands.

Each monitored series gets a robust control band maintained online:

- *center* — an exponentially-weighted moving average (EWMA) of the
  observed signal;
- *scale* — 1.4826 x the median absolute deviation (MAD) over a sliding
  window (the normal-consistency factor makes MAD comparable to a
  standard deviation), floored both absolutely and relative to the
  center so a perfectly steady series never alarms on float dust;
- a point outside ``center +- k * scale`` after the warmup emits an
  :class:`AnomalyEvent`.

Counters (including histogram ``_sum``/``_count`` series) are observed
as *per-scrape deltas* — the raw monotone value would always drift out
of any band — while gauges are observed raw.  Histogram ``_bucket``
series are skipped: quantile behaviour is better watched through the
query engine and SLO rules.

Events flow onto the existing bus (``ServiceBus.on_anomaly``) and can
arm the :class:`~repro.obs.flight.FlightRecorder`, so a utilization
collapse or latency spike dumps a postmortem bundle with the trailing
series window included.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

from repro.obs.tsdb import TimeSeriesStore

__all__ = ["AnomalyDetector", "AnomalyEvent"]


@dataclass(frozen=True)
class AnomalyEvent:
    """One out-of-band observation on one series."""

    t: float
    series: str
    labels: Mapping[str, str]
    value: float
    center: float
    lower: float
    upper: float
    kind: str  # "spike" (above band) or "drop" (below band)

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "series": self.series,
            "labels": dict(sorted(self.labels.items())),
            "value": self.value,
            "center": self.center,
            "lower": self.lower,
            "upper": self.upper,
            "kind": self.kind,
        }


def _median(ordered: list[float]) -> float:
    """Median of an ascending list."""
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _mad(ordered: list[float]) -> float:
    """Median absolute deviation from the median of the ascending ``ordered``."""
    m = _median(ordered)
    return _median(sorted(abs(v - m) for v in ordered))


@dataclass(slots=True)
class _SeriesState:
    window: deque = field(default_factory=lambda: deque(maxlen=64))
    #: The window's values ascending, kept in step with it.
    ordered: list = field(default_factory=list)
    ewma: Optional[float] = None
    seen: int = 0
    #: Counters (histogram ``_sum``/``_count`` too) are read as deltas.
    counter: bool = False
    prev_raw: Optional[float] = None  # counters: last raw value
    cursor: int = 0  # total points consumed (including evicted)


class AnomalyDetector:
    """Per-series robust baselines over a :class:`TimeSeriesStore`.

    :meth:`scan` reads only the points appended since the previous scan
    (eviction-aware cursors into each ring), so calling it after every
    scrape costs O(series + new points).  Defaults are tuned so the seeded steady service
    trace produces zero false positives (gated by the
    ``telemetry_pipeline`` bench case) while genuine latency spikes and
    utilization collapses on bursty traces still alarm.
    """

    def __init__(
        self,
        alpha: float = 0.25,
        k: float = 6.0,
        warmup: int = 16,
        window: int = 48,
        min_scale_abs: float = 1e-9,
        min_scale_frac: float = 0.25,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if k <= 0.0 or warmup < 2 or window < 4:
            raise ValueError("need k > 0, warmup >= 2, window >= 4")
        self.alpha = alpha
        self.k = k
        self.warmup = warmup
        self.window = window
        self.min_scale_abs = min_scale_abs
        self.min_scale_frac = min_scale_frac
        self.events: List[AnomalyEvent] = []
        self._states: dict[tuple, _SeriesState] = {}
        #: ``(store, its series count, [(series, state)])`` of the last
        #: scan, ``_bucket`` series left out; rebuilt when a series is added.
        self._watched: tuple = (None, 0, [])
        self._listeners: list[Callable[[AnomalyEvent], None]] = []
        self.points_seen = 0

    def on_anomaly(self, listener: Callable[[AnomalyEvent], None]) -> None:
        """Register a callback fired for every emitted event."""
        self._listeners.append(listener)

    def scan(self, store: TimeSeriesStore) -> list[AnomalyEvent]:
        """Process points appended since the last scan; return new events.

        Which series are watched (not ``_bucket`` ones) and their states
        are decided when the store gains a series; one with nothing new
        reads an empty tail."""
        new_events: list[AnomalyEvent] = []
        scanned, n_series, watched = self._watched
        if store is not scanned or len(store) != n_series:
            watched = [
                (series, self._states.setdefault(series.key, _SeriesState(
                    deque(maxlen=self.window), counter=series.kind in ("counter", "histogram"))))
                for series in store.series() if not series.name.endswith("_bucket")
            ]
            self._watched = (store, len(store), watched)
        seen = 0
        for series, state in watched:
            start = state.cursor - series.evicted
            if start < 0:
                # The ring outran us; resynchronize without alarming on
                # the gap (deltas across unseen points are meaningless).
                state.prev_raw = None
                start = 0
            times, values = series.tail(start)
            if not times:
                continue
            state.cursor = series.evicted + start + len(times)
            seen += len(times)
            for t, x in zip(times, values):
                if state.counter:
                    prev, state.prev_raw = state.prev_raw, x
                    if prev is None:
                        continue
                    x -= prev
                event = self._observe(state, series, t, x)
                if event is not None:
                    new_events.append(event)
        self.points_seen += seen
        self.events.extend(new_events)
        for event in new_events:
            for listener in self._listeners:
                listener(event)
        return new_events

    def _observe(self, state, series, t: float, x: float):
        """Score one point against the state's band, then absorb it.

        The scale's MAD (:func:`_mad`) is taken only for a point outside
        the band's floor: few are, so it sorts the deviations."""
        event = None
        window, ordered, center = state.window, state.ordered, state.ewma
        if center is not None and state.seen >= self.warmup:
            # max(min_scale_abs, floor), then max(scale, floor), minus max()'s call.
            floor = self.min_scale_frac * abs(center)
            if not floor > self.min_scale_abs:
                floor = self.min_scale_abs
            # The band is at least ``k * floor`` wide (rounding is
            # monotone), so a point inside that needs no scale at all.
            reach = self.k * floor
            if not center - reach <= x <= center + reach:
                # A flat window: every deviation is zero.
                scale = 1.4826 * (0.0 if ordered[0] == ordered[-1] else _mad(ordered))
                band = self.k * (floor if floor > scale else scale)
                lower, upper = center - band, center + band
                if x > upper or x < lower:
                    event = AnomalyEvent(
                        t=t,
                        series=series.name,
                        labels=dict(series.labels),
                        value=x,
                        center=center,
                        lower=lower,
                        upper=upper,
                        kind="spike" if x > upper else "drop",
                    )
        # The baseline absorbs the point either way: a real regime shift
        # should alarm once and adapt, not alarm forever.
        if len(window) == window.maxlen:
            del ordered[bisect_left(ordered, window[0])]
        window.append(x)
        insort(ordered, x)
        state.ewma = x if center is None else (1.0 - self.alpha) * center + self.alpha * x
        state.seen += 1
        return event
