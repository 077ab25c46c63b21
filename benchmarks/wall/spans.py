"""In-memory span recorder for the traced run.

The benchmark measures every layer from outside, so the spans here wrap
the benchmark's own calls into ``repro``'s public functions; nothing
inside ``src/`` is instrumented.  A span is (name, start, end, parent id,
workload, pass); the hierarchy is workload -> pass -> op -> probe.  Spans
stay in memory and are written once, when the worker exits, as Chrome
trace-event JSON plus a per-layer total/self-time table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: Package names under ``src/repro/``; a span named ``<layer>.<what>``
#: is booked to that layer, anything else (the ``wall.*`` workload, pass
#: and probe-group spans) to the benchmark itself.
LAYERS = (
    "approx", "atomic", "bench", "cli", "cluster", "core", "gpusim", "nei",
    "obs", "parallel", "physics", "quadrature", "service",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 = root
    workload: str
    pass_index: int


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Nested wall-clock spans on one thread.

    ``enabled`` is flipped per pass by the traced run (traced and
    untraced passes alternate in one process, so their ratio is the
    tracing overhead); while it is off, :meth:`span` hands back one
    shared no-op context manager.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.pass_index = -1
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return self._record(name)

    @contextmanager
    def _record(self, name: str) -> Iterator[None]:
        span = Span(
            id=len(self.spans) + 1,
            name=name,
            start=time.perf_counter() - self._t0,
            end=0.0,
            parent=self._stack[-1] if self._stack else 0,
            workload=self.workload,
            pass_index=self.pass_index,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            span.end = time.perf_counter() - self._t0
            self._stack.pop()

    # ------------------------------------------------------------------
    def to_chrome(self, counts: dict[str, float]) -> dict:
        """Chrome trace-event JSON: one ``X`` event per span, one ``C``
        event per count, all on a single track (spans nest by
        construction, so the track validates)."""
        events: list[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": f"wall-bench {self.workload}"}},
        ]
        for s in self.spans:
            events.append({
                "ph": "X", "name": s.name, "cat": layer_of(s.name),
                "pid": 1, "tid": 1,
                "ts": s.start * 1e6, "dur": max(0.0, s.end - s.start) * 1e6,
                "args": {"id": s.id, "parent": s.parent,
                         "workload": s.workload, "pass": s.pass_index},
            })
        end_us = max((s.end for s in self.spans), default=0.0) * 1e6
        for name, value in counts.items():
            events.append({
                "ph": "C", "name": name, "pid": 1, "tid": 1, "ts": end_us,
                "args": {"value": value},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, total time (spans nested in a span of
        the same layer are not counted twice) and self time (a span's
        duration minus the part its direct children cover)."""
        child_time: dict[int, float] = {}
        layer_by_id = {0: ""}
        for s in self.spans:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
            layer_by_id[s.id] = layer_of(s.name)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            layer = layer_by_id[s.id]
            row = out.setdefault(layer, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s.end - s.start
            row["spans"] += 1
            if layer_by_id[s.parent] != layer:
                row["total_s"] += dur
            row["self_s"] += max(0.0, dur - child_time.get(s.id, 0.0))
        return out


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else "wall"
