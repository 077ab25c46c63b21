"""Span profiler: hierarchical cost attribution from a recorded trace.

PR 3 made every layer of the stack *emit* spans; this module turns one
:class:`~repro.obs.tracer.EventTracer` recording into answers:

- **Per-track trees** — complete ("X") spans on one track nest or are
  disjoint (the exporter's validator enforces it), so each track is an
  interval forest.  A node's *total* time is its span duration; its
  *self* time is total minus the durations of its direct children.  Per
  track, the self times over the whole forest sum exactly to the track's
  busy time (the union of its root spans) — the invariant the profiler
  test asserts on the golden serve trace.
- **Top-down category table** — the logical hierarchy (dispatch → batch
  → task → wait/ingress/compute/egress) spans *different* tracks of one
  process scope, so the tree above cannot express it.  The profiler
  re-parents spans across tracks by time containment, walking category
  ranks (:data:`CATEGORY_RANK`) and picking the smallest containing
  candidate; aggregated per category path, totals and self times are
  exact regardless of which individual parent an ambiguous child landed
  on, because every child is attributed exactly once.
- **Device utilization and idle gaps** — for each device track (spans
  carrying kernel-phase categories), busy time as a fraction of the
  trace window plus the maximal idle intervals.
- **Critical path** — from the end of a batch span, repeatedly step to
  the in-scope span whose completion enabled the current point in time
  (latest end at or before the cursor), until the batch start is
  reached.  The returned chain is the sequence of spans that bound the
  batch's makespan: shortening anything off it cannot shorten the batch.
- **Collapsed-stack export** — ``;``-joined frame lines with integer
  self-time values (microseconds), the Brendan Gregg / FlameGraph
  format that speedscope imports directly.

Everything here is pure post-processing of recorded events: the hot
path is never touched, and a given trace always profiles identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.tracer import EventTracer, TraceEvent

__all__ = [
    "SpanNode",
    "TrackProfile",
    "DeviceUsage",
    "Profile",
    "render_profile",
    "to_collapsed",
    "write_collapsed",
]

#: Rank of each category in the logical span hierarchy (lower = closer
#: to the root).  Categories missing from the map are roots of their
#: own (e.g. the CLI's standalone ``apec.compute`` span).
CATEGORY_RANK = {
    "dispatch": 0,
    "batch": 1,
    "task": 2,
    "wait": 3,
    "ingress": 3,
    "compute": 3,
    "egress": 3,
}

_EPS = 1e-9
_DEVICE_THREAD = re.compile(r"^gpu\d+$")


@dataclass
class SpanNode:
    """One complete span in a per-track interval tree."""

    event: TraceEvent
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.event.name

    @property
    def cat(self) -> str:
        return self.event.cat

    @property
    def start(self) -> float:
        return self.event.ts

    @property
    def end(self) -> float:
        return self.event.ts + self.event.dur

    @property
    def total_s(self) -> float:
        return self.event.dur

    @property
    def self_s(self) -> float:
        return self.event.dur - sum(c.event.dur for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class TrackProfile:
    """One track's interval forest plus its busy-time roll-up."""

    process: str
    thread: str
    roots: list[SpanNode]

    @property
    def label(self) -> str:
        return f"{self.process}/{self.thread}"

    @property
    def total_s(self) -> float:
        """Busy time: the union of the root spans (roots are disjoint)."""
        return sum(r.total_s for r in self.roots)

    def nodes(self):
        for root in self.roots:
            yield from root.walk()


@dataclass
class DeviceUsage:
    """Busy/idle accounting of one device track over the trace window."""

    track: str
    window_s: float
    busy_s: float
    gaps: list[tuple[float, float]]

    @property
    def utilization(self) -> float:
        return self.busy_s / self.window_s if self.window_s > 0.0 else 0.0

    @property
    def idle_s(self) -> float:
        return sum(b - a for a, b in self.gaps)

    @property
    def largest_gap_s(self) -> float:
        return max((b - a for a, b in self.gaps), default=0.0)


def _union(intervals) -> list[list[float]]:
    """The union of ``intervals`` as sorted disjoint ``[start, end]`` runs
    (intervals less than ``_EPS`` apart join one run)."""
    runs: list[list[float]] = []
    for a, b in sorted(intervals):
        if runs and a <= runs[-1][1] + _EPS:
            runs[-1][1] = max(runs[-1][1], b)
        else:
            runs.append([a, b])
    return runs


def _build_forest(spans: list[TraceEvent]) -> list[SpanNode]:
    """Nest one track's complete spans (sorted outermost-first)."""
    roots: list[SpanNode] = []
    stack: list[SpanNode] = []
    for ev in sorted(spans, key=lambda e: (e.ts, -e.dur)):
        node = SpanNode(ev)
        while stack and node.start >= stack[-1].end - _EPS:
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


class Profile:
    """Post-hoc cost attribution over one recorded trace."""

    def __init__(self, tracks: list[TrackProfile]) -> None:
        self.tracks = tracks

    @classmethod
    def from_tracer(cls, tracer: EventTracer) -> "Profile":
        by_track: dict[int, list[TraceEvent]] = {}
        for ev in tracer.events:
            if ev.ph == "X":
                by_track.setdefault(ev.track, []).append(ev)
        tracks = [
            TrackProfile(t.process, t.thread, _build_forest(by_track.get(h, [])))
            for h, t in enumerate(tracer.tracks)
        ]
        return cls(tracks)

    # ------------------------------------------------------------------
    # Trace extent
    # ------------------------------------------------------------------
    def _all_nodes(self):
        for track in self.tracks:
            for node in track.nodes():
                yield track, node

    @property
    def window(self) -> tuple[float, float]:
        """[earliest span start, latest span end] across all tracks."""
        lo, hi = None, None
        for _track, node in self._all_nodes():
            lo = node.start if lo is None else min(lo, node.start)
            hi = node.end if hi is None else max(hi, node.end)
        if lo is None:
            return (0.0, 0.0)
        return (lo, hi)

    # ------------------------------------------------------------------
    # Category roll-up
    # ------------------------------------------------------------------
    def top_down(self) -> list[tuple[str, int, float, float]]:
        """Logical top-down table: (category path, spans, total_s, self_s).

        Spans are re-parented *across tracks* within one process scope by
        time containment through :data:`CATEGORY_RANK` (a task span's
        parent is the smallest batch span containing it, a kernel-phase
        span's parent the smallest containing task span, and so on).
        Children outside any ranked parent root their own path.

        Children of one parent run *concurrently* (tasks of a batch
        spread across rank tracks), so a parent's self time is its
        duration minus the **union** of its children's intervals — the
        wall time during which no child was active — never the plain
        sum, which can exceed the parent.  Totals sum raw span
        durations (CPU-seconds-like), so a deeper row legitimately
        exceeds its parent's wall time under parallelism.
        """
        by_scope: dict[str, list[SpanNode]] = {}
        for track, node in self._all_nodes():
            by_scope.setdefault(track.process, []).append(node)

        agg: dict[str, list[float]] = {}
        for nodes in by_scope.values():
            ranked: dict[int, list[SpanNode]] = {}
            for node in nodes:
                rank = CATEGORY_RANK.get(node.cat)
                if rank is not None:
                    ranked.setdefault(rank, []).append(node)
            paths: dict[int, str] = {}
            child_spans: dict[int, list[tuple[float, float]]] = {}
            for rank in sorted(ranked):
                for node in ranked[rank]:
                    parent = self._containing(ranked, rank, node)
                    if parent is None:
                        path = node.cat
                    else:
                        path = paths[id(parent)] + ";" + node.cat
                        child_spans.setdefault(id(parent), []).append(
                            (node.start, node.end)
                        )
                    paths[id(node)] = path
            for rank in sorted(ranked):
                for node in ranked[rank]:
                    row = agg.setdefault(paths[id(node)], [0, 0.0, 0.0])
                    row[0] += 1
                    row[1] += node.total_s
                    covered = sum(
                        max(0.0, min(b, node.end) - max(a, node.start))
                        for a, b in _union(child_spans.get(id(node), ()))
                    )
                    row[2] += node.total_s - covered
        return sorted(
            ((k, int(n), t, s) for k, (n, t, s) in agg.items()),
            key=lambda r: (r[0].count(";"), r[0]),
        )

    @staticmethod
    def _containing(
        ranked: dict[int, list[SpanNode]], rank: int, node: SpanNode
    ) -> Optional[SpanNode]:
        """Smallest higher-rank span containing ``node``'s interval."""
        best: Optional[SpanNode] = None
        for parent_rank in range(rank - 1, -1, -1):
            for cand in ranked.get(parent_rank, ()):
                if (
                    cand.start - _EPS <= node.start
                    and node.end <= cand.end + _EPS
                    and (best is None or cand.total_s < best.total_s)
                ):
                    best = cand
            if best is not None:
                return best
        return best

    # ------------------------------------------------------------------
    # Device utilization
    # ------------------------------------------------------------------
    def device_usage(self) -> list[DeviceUsage]:
        """Busy fraction and idle gaps for every device track."""
        lo, hi = self.window
        out: list[DeviceUsage] = []
        for track in self.tracks:
            if not _DEVICE_THREAD.match(track.thread):
                continue
            merged = _union((r.start, r.end) for r in track.roots)
            busy = sum(b - a for a, b in merged)
            gaps: list[tuple[float, float]] = []
            cursor = lo
            for a, b in merged:
                if a > cursor + _EPS:
                    gaps.append((cursor, a))
                cursor = max(cursor, b)
            if hi > cursor + _EPS:
                gaps.append((cursor, hi))
            out.append(DeviceUsage(track.label, hi - lo, busy, gaps))
        return out

    # ------------------------------------------------------------------
    # Critical path
    # ------------------------------------------------------------------
    def batches(self) -> list[SpanNode]:
        """Every batch span in the trace, longest first."""
        found = [n for _t, n in self._all_nodes() if n.cat == "batch"]
        return sorted(found, key=lambda n: -n.total_s)

    def critical_path(
        self, batch: Optional[SpanNode] = None
    ) -> list[tuple[str, SpanNode]]:
        """The chain of spans bounding one batch's makespan.

        Walks backwards from the batch's end: at each cursor, the next
        element is the span (within the batch's process scope and
        interval, at a deeper category rank) with the latest end at or
        before the cursor; the cursor then jumps to that span's start.
        Returns ``(track_label, node)`` segments in forward time order —
        an idle hole (no span ends in ``(t, cursor]``) steps to the
        latest span *overlapping* the cursor instead, so the path always
        makes progress toward the batch start.
        """
        if batch is None:
            candidates = self.batches()
            if not candidates:
                return []
            batch = candidates[0]
        scope = None
        for track in self.tracks:
            for node in track.nodes():
                if node is batch:
                    scope = track.process
        batch_rank = CATEGORY_RANK.get("batch", 1)
        pool: list[tuple[str, SpanNode]] = []
        for track in self.tracks:
            if track.process != scope:
                continue
            for node in track.nodes():
                rank = CATEGORY_RANK.get(node.cat)
                if rank is None or rank <= batch_rank:
                    continue
                if (
                    node.start >= batch.start - _EPS
                    and node.end <= batch.end + _EPS
                ):
                    pool.append((track.label, node))
        path: list[tuple[str, SpanNode]] = []
        cursor = batch.end
        used: set[int] = set()
        while cursor > batch.start + _EPS:
            ending = [
                (label, n)
                for label, n in pool
                if id(n) not in used and n.end <= cursor + _EPS and n.start < cursor - _EPS
            ]
            if ending:
                label, node = max(ending, key=lambda ln: (ln[1].end, ln[1].total_s))
            else:
                overlapping = [
                    (label, n)
                    for label, n in pool
                    if id(n) not in used and n.start < cursor - _EPS and n.end > cursor
                ]
                if not overlapping:
                    break
                label, node = max(
                    overlapping, key=lambda ln: (ln[1].start, ln[1].total_s)
                )
            path.append((label, node))
            used.add(id(node))
            cursor = node.start
        path.reverse()
        return path


# ----------------------------------------------------------------------
# Rendering and flamegraph export
# ----------------------------------------------------------------------
def render_profile(profile: Profile, max_path_rows: int = 12) -> str:
    """The terminal report: top-down table, tracks, devices, critical path."""
    lo, hi = profile.window
    if hi <= lo:
        return "(no spans recorded)"
    lines = [f"trace window: [{lo:.3f}, {hi:.3f}] s  ({hi - lo:.3f} s)"]

    lines.append("")
    lines.append(f"{'category path':<36} {'spans':>7} {'total (s)':>11} {'self (s)':>11}")
    for path, n, total, self_s in profile.top_down():
        indent = "  " * path.count(";")
        name = indent + path.rsplit(";", 1)[-1]
        lines.append(f"{name:<36} {n:>7} {total:>11.4f} {self_s:>11.4f}")

    track_rows = [
        (t.label, t.total_s, len(list(t.nodes())))
        for t in profile.tracks
        if t.roots
    ]
    if track_rows:
        lines.append("")
        lines.append(f"{'track':<28} {'busy (s)':>11} {'spans':>7}")
        for label, busy, n in sorted(track_rows, key=lambda r: -r[1]):
            lines.append(f"{label:<28} {busy:>11.4f} {n:>7}")

    devices = profile.device_usage()
    if devices:
        lines.append("")
        lines.append(
            f"{'device':<28} {'util':>7} {'busy (s)':>11} "
            f"{'idle (s)':>11} {'gaps':>5} {'max gap (s)':>12}"
        )
        for d in devices:
            lines.append(
                f"{d.track:<28} {d.utilization:>6.1%} {d.busy_s:>11.4f} "
                f"{d.idle_s:>11.4f} {len(d.gaps):>5} {d.largest_gap_s:>12.4f}"
            )

    path = profile.critical_path()
    if path:
        batch = profile.batches()[0]
        covered = sum(n.total_s for _l, n in path)
        lines.append("")
        lines.append(
            f"critical path of batch '{batch.name}' "
            f"({batch.total_s:.4f} s, {len(path)} segment(s), "
            f"{covered / batch.total_s:.0%} covered):"
        )
        for label, node in path[:max_path_rows]:
            lines.append(
                f"  [{node.start:>9.3f} -> {node.end:>9.3f}] "
                f"{node.cat:<8} {node.name:<24} on {label}"
            )
        if len(path) > max_path_rows:
            lines.append(f"  ... {len(path) - max_path_rows} more segment(s)")
    return "\n".join(lines)


def to_collapsed(tracer: EventTracer) -> list[str]:
    """Collapsed-stack lines (``frame;frame;... value``), self-time in µs.

    The Brendan Gregg / FlameGraph format: one line per unique stack,
    frames joined by ``;``, an integer weight at the end.  speedscope
    imports it directly.  Frames are ``process``, ``thread``, then the
    span names down the per-track tree; weights are self times rounded
    to whole microseconds (zero-weight stacks are dropped).
    """
    profile = Profile.from_tracer(tracer)
    weights: dict[str, int] = {}

    def visit(node: SpanNode, frames: list[str]) -> None:
        frames = frames + [node.name.replace(";", ":")]
        weight = int(round(node.self_s * 1e6))
        if weight > 0:
            stack = ";".join(frames)
            weights[stack] = weights.get(stack, 0) + weight
        for child in node.children:
            visit(child, frames)

    for track in profile.tracks:
        base = [track.process.replace(";", ":"), track.thread.replace(";", ":")]
        for root in track.roots:
            visit(root, base)
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def write_collapsed(path: str, tracer: EventTracer) -> int:
    """Write the collapsed-stack export; returns the line count."""
    lines = to_collapsed(tracer)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)
