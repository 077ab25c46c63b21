"""Span-based tracing on the shared virtual clock.

The tracer is the substrate every layer of the stack reports into: the
service broker (request admission, queueing, batch dispatch), the hybrid
runner (per-task spans with placement attributes), and the simulated
GPUs (ingress / compute / egress sub-spans).  Timestamps are *virtual*
seconds read from the same :class:`~repro.cluster.simclock.SimClock`
every process runs on, so a trace is exactly as deterministic as the
run it records — no wall-clock ambiguity, no sampling jitter.

Two implementations share one duck-typed API:

- :class:`NullTracer` (module singleton :data:`NULL_TRACER`) — every
  method is a no-op and ``enabled`` is ``False``; instrumented hot paths
  guard their argument construction with ``if tracer.enabled`` so a run
  without tracing pays one attribute read per site.
- :class:`EventTracer` — records :class:`TraceEvent` rows in memory.
  Export lives in :mod:`repro.obs.export` (Chrome trace-event JSON for
  Perfetto, terminal Gantt) and :mod:`repro.obs.prom` (Prometheus text
  exposition derived from the same stream).

Event vocabulary (a deliberate subset of the Chrome trace-event model):

- *complete* span — a ``[start, now]`` interval on a track ("X");
- *async* span   — begin/end pair matched by id, for request lifetimes
  that overlap freely on one lane track ("b"/"e");
- *instant*      — a point event (cache hit, placement decision) ("i");
- *counter*      — a sampled series (queue depth, device load) ("C").

Causal links: any event may carry an ``id`` (a span identity from
:meth:`EventTracer.new_id`, one shared monotone space per tracer) and a
``parent`` (the id of the span that *caused* it).  The chain request →
megabatch group → task → kernel sub-span makes every device interval
reachable from exactly one request root; the exporter renders each link
as a Perfetto flow arrow and :mod:`repro.obs.attribution` folds measured
child costs back onto the requests.

A *track* is one horizontal lane of the rendered timeline, named by a
``(process, thread)`` pair — e.g. ``("svc0", "rank3")`` or
``("service", "lane.interactive")`` — and interned to an integer handle
so hot-path emission never hashes strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TraceEvent", "NullTracer", "EventTracer", "NULL_TRACER", "WallClock"]


@dataclass(slots=True)
class TraceEvent:
    """One recorded event; ``ts``/``dur`` are virtual seconds."""

    ph: str  # "X" | "b" | "e" | "i" | "C"
    name: str
    cat: str
    track: int
    ts: float
    dur: float = 0.0
    id: Optional[int] = None
    args: Optional[dict] = None
    parent: Optional[int] = None  # id of the causing span, if any


class NullTracer:
    """The do-nothing tracer: tracing off, hot path unperturbed."""

    enabled = False

    def bind(self, clock) -> "NullTracer":
        return self

    def track(self, process: str, thread: str) -> int:
        return 0

    def new_id(self) -> int:
        return 0

    def complete(self, track, name, start, cat="", args=None, id=None, parent=None) -> None:
        pass

    def span(self, track, name, start, end, cat="", args=None, id=None, parent=None) -> None:
        pass

    def instant(self, track, name, cat="", args=None, parent=None) -> None:
        pass

    def async_begin(self, track, name, id, cat="", args=None, parent=None) -> None:
        pass

    def async_end(self, track, name, id, cat="", args=None) -> None:
        pass

    def counter(self, track, name, value) -> None:
        pass


#: Shared no-op instance — stateless, so one is enough for the process.
NULL_TRACER = NullTracer()


class WallClock:
    """Wall-time stand-in for a SimClock (CLI paths with no simulation).

    ``now`` is seconds since construction, so wall traces start at t = 0
    like virtual ones.
    """

    def __init__(self) -> None:
        import time

        self._t0 = time.perf_counter()
        self._time = time.perf_counter

    @property
    def now(self) -> float:
        return self._time() - self._t0


@dataclass
class _Track:
    process: str
    thread: str


class _NoClock:
    """Stands in for the clock of an unbound tracer: reading it is the error."""

    @property
    def now(self) -> float:
        raise RuntimeError("tracer has no clock; call bind(clock) first")


_NO_CLOCK = _NoClock()


class EventTracer:
    """In-memory recording tracer on a (virtual or wall) clock."""

    enabled = True

    def __init__(self, clock=None) -> None:
        self._clock = clock if clock is not None else _NO_CLOCK
        self.events: list[TraceEvent] = []
        self.tracks: list[_Track] = []
        self._track_ids: dict[tuple[str, str], int] = {}
        self._next_id = 0

    def bind(self, clock) -> "EventTracer":
        """Late-bind the clock (for runs that build their own SimClock)."""
        self._clock = clock
        return self

    @property
    def bound(self) -> bool:
        return self._clock is not _NO_CLOCK

    @property
    def now(self) -> float:
        return self._clock.now

    # ------------------------------------------------------------------
    # Tracks
    # ------------------------------------------------------------------
    def track(self, process: str, thread: str) -> int:
        """Intern a ``(process, thread)`` pair to a track handle."""
        key = (process, thread)
        tid = self._track_ids.get(key)
        if tid is None:
            tid = len(self.tracks)
            self.tracks.append(_Track(process, thread))
            self._track_ids[key] = tid
        return tid

    def new_id(self) -> int:
        """Allocate a fresh span id (one monotone space per tracer)."""
        self._next_id += 1
        return self._next_id

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def complete(self, track, name, start, cat="", args=None, id=None, parent=None) -> None:
        """Close a span opened at virtual time ``start`` on ``track``."""
        self.events.append(
            TraceEvent(
                "X", name, cat, track, start, self._clock.now - start, id, args, parent
            )
        )

    def span(self, track, name, start, end, cat="", args=None, id=None, parent=None) -> None:
        """Record a span with an explicit ``[start, end]`` interval."""
        self.events.append(
            TraceEvent("X", name, cat, track, start, end - start, id, args, parent)
        )

    def instant(self, track, name, cat="", args=None, parent=None) -> None:
        self.events.append(
            TraceEvent("i", name, cat, track, self._clock.now, 0.0, None, args, parent)
        )

    def async_begin(self, track, name, id, cat="", args=None, parent=None) -> None:
        self.events.append(
            TraceEvent("b", name, cat, track, self._clock.now, 0.0, id, args, parent)
        )

    def async_end(self, track, name, id, cat="", args=None) -> None:
        self.events.append(
            TraceEvent("e", name, cat, track, self._clock.now, 0.0, id, args)
        )

    def counter(self, track, name, value) -> None:
        """Sample a counter series (rendered as a filled track)."""
        self.events.append(
            TraceEvent("C", name, "", track, self._clock.now, 0.0, None, {"value": value})
        )
