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

- *complete* span — a ``[start, end]`` interval on a track ("X");
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

Task rows.  The hybrid runner and the simulated GPUs do not build events:
a traced task is recorded as a few flat tuples of numbers and strings —
no ``TraceEvent``, no args dict — that :attr:`EventTracer.events` expands
when it is first read.  The one rule: *a row is appended at the instant
its first event used to be and expands in place*, so the list order is
the eager order.  ``EventTracer.log`` keeps one slot per event (a row
standing for k events is followed by k - 1 ``None``), which makes an
index into the log an index into ``events``.  In place in the log too:
an expanded row gives way to its events there, unless the one reader of
rows (an ``Attribution``, ``rows_unread``) has yet to reach it, so a
trace that has been read is not held twice.  The vocabulary (``row[0]``
is the kind):

- ``(LOAD, track, ts, value)`` — one sample of a device's load counter;
- ``(ALLOC, track, ts, chosen, loads, histories, task_id, backlog,
  ticks, predicted_s)`` — one ``sche_alloc`` instant.  The counters are
  read *after* the admission; the instant's args show them as the
  decision saw them (the chosen device's load and history less the one
  admission, its backlog less ``ticks``);
- ``(DEVICE, track, parent, label, bytes_in, evals, evals_saved,
  bytes_out, t0, t1, t2, t3)`` — a whole kernel from a single-slot
  device: its ingress, compute and egress spans between the four
  boundaries;
- ``(PHASE, track, parent, label, bytes_in, evals, evals_saved,
  bytes_out, phase, t0, t1)`` — one phase (0 ingress, 1 compute,
  2 egress) from a multi-slot device, which overlaps its clients;
- ``(END, track, name, start, end, id, parent, device, wait_s,
  service_s, submitted_at, started, stolen, predicted_s)`` — the task
  span, preceded by its ``queue-wait`` span ``[submitted_at, started]``
  if it waited; ``submitted_at`` is ``None`` in the row of one that did
  not.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

__all__ = ["TraceEvent", "NullTracer", "EventTracer", "NULL_TRACER", "WallClock"]

#: Task-row kinds (see the module docstring for the layouts), the ones
#: that measure nothing first: attribution skips ``kind < DEVICE``.
LOAD, ALLOC, DEVICE, PHASE, END = range(5)

#: Integer accounting resolution: picoseconds per virtual second.  Small
#: enough that no simulated interval rounds to zero, large enough that
#: run-wide tick sums stay far below 2**53 (exact in float64 and JSON).
TICKS_PER_S = 10**12

#: Log slots expanded between two releases of the rows behind them.
_STRETCH = 4096


def _phase_span(row: tuple, phase: int, start: float, end: float) -> "TraceEvent":
    """The span of one kernel phase of a DEVICE or PHASE row (both open
    ``kind, track, parent, label, bytes_in, evals, evals_saved, bytes_out``)."""
    if phase == 0:
        name, cat, args = "h2d+launch", "ingress", {"label": row[3], "bytes_in": row[4]}
    elif phase == 1:
        name, cat = "compute", "compute"
        args = {"label": row[3], "evals": row[5], "evals_saved": row[6]}
    else:
        name, cat, args = "d2h", "egress", {"label": row[3], "bytes_out": row[7]}
    return TraceEvent(
        "X", name, cat, row[1], start, end - start, None, args, row[2] or None
    )


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

    def _noop(self, *args, **kwargs) -> None:
        pass

    #: Every emission method of :class:`EventTracer`, eager and row alike.
    span = instant = async_begin = async_end = counter = _noop
    load = task_alloc = device_task = device_phase = task_end = _noop


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


class _Events(Sequence):
    """``EventTracer.events``: the log read as the list of events it stands
    for.  ``len()`` is the log's; any other read expands the rows recorded
    since the last one."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "EventTracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer.log)

    def __getitem__(self, index):
        return self._tracer._expanded()[index]

    def __iter__(self):
        return iter(self._tracer._expanded())


class EventTracer:
    """In-memory recording tracer on a (virtual or wall) clock."""

    enabled = True

    def __init__(self, clock=None) -> None:
        self._clock = clock if clock is not None else _NO_CLOCK
        #: The record stream, one slot per event: ``TraceEvent``s from the
        #: eager API, task rows, and ``None`` behind a multi-event row.
        self.log: list = []
        self._events: list[TraceEvent] = []  # log[:len(_events)], expanded
        #: Rows from this index on are still to be read as rows (an
        #: ``Attribution`` keeps its cursor here; ``None``: nobody reads
        #: rows).  Below it, an expanded row gives way to its events.
        self.rows_unread: Optional[int] = None
        self._released = 0  # log[:_released] holds events only
        self._load_args: dict[int, dict] = {}
        self.tracks: list[_Track] = []
        self._track_ids: dict[tuple[str, str], int] = {}
        self._next_id = 0

    @property
    def events(self) -> _Events:
        """Every recorded event, in emission order (a read-only view)."""
        return _Events(self)

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
    def span(self, track, name, start, end, cat="", args=None, id=None, parent=None) -> None:
        """Record a span with an explicit ``[start, end]`` interval."""
        self.log.append(
            TraceEvent("X", name, cat, track, start, end - start, id, args, parent)
        )

    def instant(self, track, name, cat="", args=None, parent=None) -> None:
        self.log.append(
            TraceEvent("i", name, cat, track, self._clock.now, 0.0, None, args, parent)
        )

    def async_begin(self, track, name, id, cat="", args=None, parent=None) -> None:
        self.log.append(
            TraceEvent("b", name, cat, track, self._clock.now, 0.0, id, args, parent)
        )

    def async_end(self, track, name, id, cat="", args=None) -> None:
        self.log.append(
            TraceEvent("e", name, cat, track, self._clock.now, 0.0, id, args)
        )

    def counter(self, track, name, value) -> None:
        """Sample a counter series (rendered as a filled track)."""
        self.log.append(
            TraceEvent("C", name, "", track, self._clock.now, 0.0, None, {"value": value})
        )

    # ------------------------------------------------------------------
    # Task rows (layouts in the module docstring)
    # ------------------------------------------------------------------
    def load(self, track, ts, value) -> None:
        """Sample a device's load counter at the scheduler's ``ts``."""
        self.log.append((LOAD, track, ts, value))

    def task_alloc(self, track, chosen, loads, histories, task_id,
                   backlog=None, ticks=0, predicted_s=None) -> None:
        """One ``sche_alloc`` decision, its counters read after it."""
        # Tuples of numbers, all the way down: the collector stops
        # tracking such a row, so a trace adds nothing to its full passes.
        self.log.append(
            (ALLOC, track, self._clock.now, chosen, tuple(loads),
             tuple(histories), task_id,
             None if backlog is None else tuple(backlog), ticks, predicted_s)
        )

    def device_task(self, track, parent, task, t0, t1, t2, t3) -> None:
        """A whole task: ingress ``[t0, t1]``, compute, egress ``[t2, t3]``."""
        self.log += (
            (DEVICE, track, parent, task.label, task.bytes_in,
             task.total_evals, task.evals_saved, task.bytes_out,
             t0, t1, t2, t3),
            None, None,
        )

    def device_phase(self, track, parent, task, phase, t0, t1) -> None:
        """One phase of a task on a device (0 ingress, 1 compute, 2 egress)."""
        self.log.append(
            (PHASE, track, parent, task.label, task.bytes_in,
             task.total_evals, task.evals_saved, task.bytes_out,
             phase, t0, t1)
        )

    def task_end(self, track, name, start, id, parent, device, wait_s=None,
                 service_s=None, submitted_at=0.0, started=0.0, stolen=None,
                 predicted_s=None) -> None:
        """Close a task: ``device`` < 0 is the CPU fallback; ``wait_s`` /
        ``service_s`` / ``stolen`` left ``None`` stay out of the span's args."""
        self.log.append(
            (END, track, name, start, self._clock.now, id, parent, device,
             wait_s, service_s, submitted_at if wait_s else None, started,
             stolen, predicted_s)
        )
        if wait_s:  # it waited: a slot for the queue-wait span
            self.log.append(None)

    def _expanded(self) -> list[TraceEvent]:
        """``log`` as events, extended over the rows not yet expanded — in
        place: a stretch at a time, the expanded rows nobody is still to
        read give way to their events, so a trace is never held twice."""
        events, log = self._events, self.log
        keep = len(log) if self.rows_unread is None else self.rows_unread
        for at in range(len(events), len(log), _STRETCH):
            self._expand(log[at:at + _STRETCH])
            upto = min(at + _STRETCH, keep)
            log[self._released:upto] = events[self._released:upto]
            self._released = upto
        return events

    def _expand(self, rows: list) -> None:
        add = self._events.append
        for row in rows:
            if row.__class__ is not tuple:
                if row is not None:
                    add(row)
                continue
            kind, track = row[0], row[1]
            if kind == LOAD:
                value = row[3]
                args = self._load_args.get(value)
                if args is None:
                    args = self._load_args[value] = {"value": value}
                add(TraceEvent("C", "load", "", track, row[2], 0.0, None, args))
            elif kind == ALLOC:
                _, _, ts, chosen, loads, histories, task_id, backlog, ticks, predicted = row
                loads, histories = list(loads), list(histories)
                if chosen >= 0:  # undo the admission the counters include
                    loads[chosen] -= 1
                    histories[chosen] -= 1
                args = {"chosen": chosen, "loads": loads, "histories": histories}
                if backlog is not None:
                    args["backlogs_s"] = [
                        (b - ticks if d == chosen else b) / TICKS_PER_S
                        for d, b in enumerate(backlog)
                    ]
                    args["predicted_s"] = predicted
                args["task_id"] = task_id
                add(TraceEvent("i", "sche_alloc", "sched", track, ts, 0.0, None, args))
            elif kind == DEVICE:
                t0, t1, t2, t3 = row[8:]
                add(_phase_span(row, 0, t0, t1))
                add(_phase_span(row, 1, t1, t2))
                add(_phase_span(row, 2, t2, t3))
            elif kind == PHASE:
                add(_phase_span(row, *row[8:]))
            else:  # END
                (_, _, name, start, end, id, parent, device, wait_s, service_s,
                 submitted_at, started, stolen, predicted) = row
                if submitted_at is not None:
                    add(TraceEvent(
                        "X", "queue-wait", "wait", track, submitted_at,
                        started - submitted_at, None, {"device": device}, id,
                    ))
                args = {"placement": "gpu" if device >= 0 else "cpu", "device": device}
                if stolen is not None:
                    args["stolen"] = stolen
                    args["predicted_s"] = predicted
                if wait_s is not None:
                    args["wait_s"] = wait_s
                if service_s is not None:
                    args["service_s"] = service_s
                add(TraceEvent(
                    "X", name, "task", track, start, end - start, id, args,
                    parent or None,
                ))
