"""Fair-share causal cost attribution and the online task cost model.

One fused device launch serves many requests at once, so "where did
this request's latency go?" has no per-span answer.  Every gpusim
sub-span (h2d+launch / compute / d2h), queue-wait span and CPU-fallback
task span is reachable through ``parent`` edges from exactly one request
root (request → megabatch group → task → kernel interval), and
:class:`Attribution` folds each measured interval *back* onto the member
requests of the group that caused it.

The split is deterministic fair share: width-proportional, corrected by
each member's marginal work (its temperature's active (level, bin) pair
count with window pruning on: the row sums of the matrix the service
compile prices the group from).  Costs are integer picosecond ticks split
by largest remainder, so the shares of every span sum to its measured
duration *exactly* — conservation at zero tolerance, and a ledger
bit-identical across execution backends.

Cache hits, lattice hits, and coalesced followers appear in the ledger
as zero-cost attributed outcomes (a follower links to its leader, whose
entry carries the group share).

:class:`CostModel` is the forward-looking half: an EWMA per
(ion, method, window-width-bucket) of measured device service time,
seeded from the calibrated device prior, updated online from attributed
spans, queryable for predicted task cost, and serializable — the
substrate a measured-cost scheduler plugs into.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from repro.obs.tracer import DEVICE, END, PHASE, TICKS_PER_S

__all__ = [
    "Attribution",
    "AttributionResult",
    "CostEntry",
    "CostModel",
    "kernel_root_map",
    "render_cost_report",
]

#: Cost components a request's ledger entry is split into.
COMPONENTS = ("compute", "transfer", "wait")

_CAT_COMPONENT = {"compute": "compute", "ingress": "transfer", "egress": "transfer", "wait": "wait"}

#: Component of each tick field of a row-recorded task, in the order its
#: spans stand in the stream: the three device phases, the queue wait,
#: the CPU fallback's compute.
_ROW_COMPONENTS = ("transfer", "compute", "transfer", "wait", "compute")

#: What a task that never reached a device holds of one: no phase ticks,
#: no label (nothing to hand the cost model).
_NO_KERNEL = (0, 0, 0, None, 0)

_GROUP_LABEL_SUFFIX = re.compile(r"x\d+$")


def _split_ticks(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder split of ``total`` ticks by ``weights``.

    Returns non-negative integers summing to ``total`` exactly; ties on
    the remainder break by member index, so the split is a pure function
    of (total, weights) — deterministic across platforms and backends.
    """
    n = len(weights)
    if n == 1:
        return [total]
    wsum = sum(weights)
    raw = [total * (w / wsum) for w in weights]
    base = [int(x) for x in raw]
    rem = total - sum(base)
    order = sorted(range(n), key=lambda i: (-(raw[i] - base[i]), i))
    k = 0
    while rem > 0:
        base[order[k % n]] += 1
        rem -= 1
        k += 1
    while rem < 0:  # float-noise guard: raw summed a hair above total
        idx = max(range(n), key=lambda i: (base[i], -i))
        base[idx] -= 1
        rem += 1
    return base


def ion_from_label(label: str) -> str:
    """Ion name carried by a kernel label (``req3/O+7``, ``grp0/Fe+13x4``)."""
    return _ion_of_segment(label.split("/", 1)[-1])


@lru_cache(maxsize=4096)
def _ion_of_segment(seg: str) -> str:
    # Keyed on the part after the request/point prefix: a few hundred
    # ions x group widths recur for ever, the prefixes never do.
    return _GROUP_LABEL_SUFFIX.sub("", seg)


def width_bucket(evals: int) -> int:
    """Power-of-two work bucket of a kernel's priced evaluation count."""
    return int(evals).bit_length()


@dataclass
class CostEntry:
    """Attributed cost ledger of one request."""

    trace_id: int
    key: str = ""
    lane: str = ""
    outcome: str = ""  # queued | cache_hit | lattice_hit | coalesced
    #: Leader request id a coalesced follower rode on (0 otherwise).
    leader: int = 0
    #: Megabatch group span ids this request's work ran in.
    groups: list[int] = field(default_factory=list)
    #: Attributed cost per component, integer picosecond ticks.
    ticks: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in COMPONENTS}
    )

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "key": self.key,
            "lane": self.lane,
            "outcome": self.outcome,
            "leader": self.leader,
            "groups": list(self.groups),
            **{f"{c}_s": self.ticks[c] / TICKS_PER_S for c in COMPONENTS},
            "total_s": sum(self.ticks.values()) / TICKS_PER_S,
        }


@dataclass
class AttributionResult:
    """One consistent snapshot of the attribution ledger."""

    entries: list[CostEntry]
    #: Resolved measured span ticks per component.
    measured_ticks: dict[str, int]
    #: Attributed ticks per component (sums of the entry shares).
    attributed_ticks: dict[str, int]
    #: Measured spans with no causal chain to a request (standalone
    #: hybrid runs, spans still pending resolution) — never silently
    #: folded into the conserving totals.
    unattributed_ticks: dict[str, int]

    @property
    def conservation(self) -> float:
        return _conservation(self.measured_ticks, self.attributed_ticks)

    def as_dict(self) -> dict:
        seconds = lambda ticks: {c: t / TICKS_PER_S for c, t in ticks.items()}
        return {
            "entries": [e.as_dict() for e in self.entries],
            "measured_s": seconds(self.measured_ticks),
            "attributed_s": seconds(self.attributed_ticks),
            "unattributed_s": seconds(self.unattributed_ticks),
            "conservation": self.conservation,
        }


@dataclass(slots=True)
class _Group:
    """One landed megabatch group: who pays for its spans, in what shares."""

    entries: list[CostEntry]
    weights: list[float]
    method: str


class _SumById:
    """Float sum of per-id terms *taken in id order*.

    The cost counters are defined as the sum of every entry's seconds in
    trace-id order; float addition is not associative, so a running total
    is that sum only while ids arrive ascending.  A late id (a batch of
    the other worker finishing first) re-adds the tail behind it — the
    cost of being out of order, not of the history.
    """

    __slots__ = ("ids", "terms", "prefix")

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.terms: list[float] = []
        self.prefix: list[float] = []

    def set(self, id: int, term: float) -> None:
        ids, terms, prefix = self.ids, self.terms, self.prefix
        k = bisect.bisect_left(ids, id)
        if k < len(ids) and ids[k] == id:
            terms[k] = term
        else:
            ids.insert(k, id)
            terms.insert(k, term)
            prefix.insert(k, 0.0)
        total = prefix[k - 1] if k else 0.0
        for j in range(k, len(ids)):
            total += terms[j]
            prefix[j] = total

    @property
    def total(self) -> float:
        return self.prefix[-1] if self.prefix else 0.0


def _conservation(measured: dict[str, int], attributed: dict[str, int]) -> float:
    """min over components of attributed/measured (1.0 = exact).

    Both sides are integer tick sums, so equality — and a ratio of
    exactly 1.0 — is decidable at zero tolerance.
    """
    worst = 1.0
    for comp in COMPONENTS:
        if measured[comp]:
            worst = min(worst, attributed[comp] / measured[comp])
    return worst


class Attribution:
    """Incremental fair-share attribution over one tracer's event stream.

    Bind it to the run's :class:`~repro.obs.tracer.EventTracer` and call
    :meth:`ingest` whenever new events have landed (the broker does so at
    every batch completion); :meth:`result` snapshots the ledger at any
    point.  Tasks are read off their rows (:mod:`repro.obs.tracer`), which
    arrive out of causal order — device phases before their task's END
    row, END rows before the group span — so a task's device phases wait,
    as integer ticks, for its END row, and one flat tuple a task waits in
    its group's list for the group span: every row is visited once, the
    padding skipped in C.  Of the eager events only group spans, request
    begins and parentless component spans (booked as unattributed) are
    read.  The ledger keeps its own totals (:meth:`lane_seconds`,
    :meth:`unattributed_ticks`, :attr:`conservation`), so exporting them
    never walks the entries.
    """

    def __init__(self, tracer) -> None:
        self._tracer = tracer
        self._cursor = tracer.rows_unread = 0
        self._entries: dict[int, CostEntry] = {}
        self._groups: dict[int, _Group] = {}
        #: Task span id -> its device phases' ticks, waiting for the END
        #: row: ``(ingress, compute, egress, label, evals)``, the label
        #: ``None`` until the kernel has left the device.
        self._device: dict[int, Sequence] = {}
        #: group span id -> its tasks waiting for the group span, each the
        #: tuple ``(seq, group, wait, cpu, device)``: task order, queue-wait
        #: and CPU-fallback ticks, and its ``_device`` entry.
        self._waiting: dict[int, list[tuple]] = {}
        self._task_seq = 0
        self._measured: dict[str, int] = {c: 0 for c in COMPONENTS}
        self._attributed: dict[str, int] = {c: 0 for c in COMPONENTS}
        #: Span ticks with no causal edge at all / buffered on a task.
        self._orphaned: dict[str, int] = {c: 0 for c in COMPONENTS}
        self._buffered: dict[str, int] = {c: 0 for c in COMPONENTS}
        self._lane_sums: dict[tuple[str, str], _SumById] = {}
        self._observations: list[tuple] = []
        #: Kernel label -> its ion.  Point indices restart every batch, so
        #: labels (``req{point}/{ion}``) recur and this stays batch-sized.
        self._ions: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _lane_of(self, track: int) -> str:
        tracks = getattr(self._tracer, "tracks", [])
        if 0 <= track < len(tracks):
            thread = tracks[track].thread
            if thread.startswith("lane."):
                return thread[len("lane."):]
        return ""

    def _entry(self, trace_id: int) -> CostEntry:
        entry = self._entries.get(trace_id)
        if entry is None:
            entry = self._entries[trace_id] = CostEntry(trace_id=trace_id)
        return entry

    def ingest(self) -> int:
        """Process events recorded since the last call; returns how many.
        The groups that landed go to :meth:`_settle` together."""
        tracer = self._tracer
        log = tracer.log
        start = self._cursor
        self._cursor = tracer.rows_unread = end = len(log)
        device, groups, waiting = self._device, self._groups, self._waiting
        seq = self._task_seq
        landed: dict[int, list[tuple]] = {}  # group span id -> its tasks
        # Ticks buffered on a task / with no causal edge, by component.
        b_tr = b_co = b_wa = o_tr = o_co = o_wa = 0
        for ev in filter(None, log[start:end]):
            if ev.__class__ is tuple:  # a task row (layouts: repro.obs.tracer)
                kind = ev[0]
                if kind < DEVICE:  # LOAD, ALLOC: nothing measured
                    continue
                if kind == DEVICE:
                    _, _, sid, label, _, evals, _, _, t0, t1, t2, t3 = ev
                    t_in = round((t1 - t0) * TICKS_PER_S)
                    t_c = round((t2 - t1) * TICKS_PER_S)
                    t_out = round((t3 - t2) * TICKS_PER_S)
                    if sid:
                        b_tr += t_in + t_out
                        b_co += t_c
                        device[sid] = (t_in, t_c, t_out, label, evals)
                    else:  # no causal edge at all: unattributed for good
                        o_tr += t_in + t_out
                        o_co += t_c
                elif kind == END:
                    (_, _, _, began, ended, sid, gid, placed, _, _, submitted_at,
                     started, _, _) = ev
                    wait = cpu = 0
                    if submitted_at is not None:  # it waited: the queue-wait span
                        wait = round((started - submitted_at) * TICKS_PER_S)
                        b_wa += wait
                    if placed < 0:  # CPU fallback: the task span *is* the compute
                        cpu = round((ended - began) * TICKS_PER_S)
                        b_co += cpu
                    task = (seq, gid, wait, cpu, device.pop(sid, _NO_KERNEL))
                    seq += 1
                    if gid:
                        (landed if gid in groups else waiting).setdefault(gid, []).append(task)
                else:  # PHASE
                    _, _, sid, label, _, evals, _, _, phase, t0, t1 = ev
                    ticks = round((t1 - t0) * TICKS_PER_S)
                    book = self._buffered if sid else self._orphaned
                    book[_ROW_COMPONENTS[phase]] += ticks
                    if sid:
                        dev = list(device.get(sid, _NO_KERNEL))
                        dev[phase] = ticks
                        if phase == 2:  # left the device: a complete measurement
                            dev[3:] = label, evals
                        device[sid] = dev
                continue
            ph, cat = ev.ph, ev.cat
            if ph == "X":
                if cat == "group" and ev.id is not None:
                    args = ev.args or {}
                    members = [int(m) for m in args.get("members", [])] or [0]
                    weights = [float(w) for w in args.get("weights", [])]
                    if len(weights) != len(members):
                        weights = [1.0] * len(members)
                    entries = [self._entry(m) for m in members]
                    for entry in entries:
                        if ev.id not in entry.groups:
                            entry.groups.append(ev.id)
                    groups[ev.id] = _Group(entries, weights, args.get("method", ""))
                    if ev.id in waiting:
                        landed.setdefault(ev.id, []).extend(waiting.pop(ev.id))
                elif not ev.parent and cat in _CAT_COMPONENT:
                    # No causal edge at all: a standalone run's span.
                    self._orphaned[_CAT_COMPONENT[cat]] += round(ev.dur * TICKS_PER_S)
            elif ph == "b" and cat == "request" and ev.id is not None:
                args = ev.args or {}
                entry = self._entry(ev.id)
                entry.key = args.get("key", entry.key)
                entry.lane = self._lane_of(ev.track) or entry.lane
                entry.outcome = args.get("outcome", entry.outcome)
                if ev.parent:
                    entry.leader = ev.parent
        self._task_seq = seq
        for book, tr, co, wa in ((self._buffered, b_tr, b_co, b_wa),
                                 (self._orphaned, o_tr, o_co, o_wa)):
            book["transfer"] += tr
            book["compute"] += co
            book["wait"] += wa
        if landed:
            self._settle(landed)
        return end - start

    def _settle(self, landed: dict[int, list[tuple]]) -> None:
        """Pay the buffered spans of landed groups' tasks (group span id ->
        its tasks) and queue their device costs for the cost model in task
        order.  Tick sums are exact integers: a group's are summed in C and
        a lone member pays them; several split each span by largest
        remainder on the group's weights."""
        groups = self._groups
        tr = co = wa = 0
        touched: dict[int, CostEntry] = {}
        for gid, tasks in landed.items():
            entries = groups[gid].entries
            wait = sum(map(itemgetter(2), tasks))
            cpu = sum(map(itemgetter(3), tasks))
            kernels = list(map(itemgetter(4), tasks))
            t_in, t_c, t_out = (sum(map(itemgetter(k), kernels)) for k in range(3))
            tr += t_in + t_out
            co += t_c + cpu
            wa += wait
            if len(entries) == 1:
                ticks = entries[0].ticks
                ticks["transfer"] += t_in + t_out
                ticks["compute"] += t_c + cpu
                ticks["wait"] += wait
            else:
                weights = groups[gid].weights
                for _, _, w, c, (i, k, o, _, _) in tasks:  # one task's spans
                    for comp, total in zip(_ROW_COMPONENTS, (i, k, o, w, c)):
                        if total:
                            shares = _split_ticks(total, weights)
                            for entry, share in zip(entries, shares):
                                entry.ticks[comp] += share
            for entry in entries:
                touched[entry.trace_id] = entry
        for comp, total in (("transfer", tr), ("compute", co), ("wait", wa)):
            self._measured[comp] += total
            self._attributed[comp] += total
            self._buffered[comp] -= total
        lane_sums = self._lane_sums
        for trace_id, entry in touched.items():
            lane = entry.lane or "unknown"
            for comp, ticks in entry.ticks.items():
                sums = lane_sums.get((lane, comp))
                if sums is None:
                    sums = lane_sums[lane, comp] = _SumById()
                sums.set(trace_id, ticks / TICKS_PER_S)
        # The cost model's rows, (key, evals, service_s), in task order.
        observations, ions = self._observations, self._ions
        for _, gid, _, _, (t_in, t_c, t_out, label, evals) in sorted(
            chain.from_iterable(landed.values())
        ):
            if label is None:  # a CPU fallback: no device cost
                continue
            ion = ions.get(label)
            if ion is None:
                ion = ions[label] = ion_from_label(label)
            observations.append((
                (ion, groups[gid].method, int(evals).bit_length()), evals,
                (t_in + t_c + t_out) / TICKS_PER_S,
            ))

    def drain_observations(self) -> list[tuple]:
        """New completed-task observations since the last drain, each the
        ``(key, evals, service_s)`` row :meth:`CostModel.ingest` folds,
        ``key`` being the task's :meth:`CostModel.key`."""
        out = self._observations
        self._observations = []
        return out

    # ------------------------------------------------------------------
    # Ledger totals and snapshot
    # ------------------------------------------------------------------
    def lane_seconds(self) -> dict[tuple[str, str], float]:
        """``(lane, component)`` -> attributed seconds: the entries'
        seconds summed in trace-id order, kept as they are attributed."""
        return {key: sums.total for key, sums in self._lane_sums.items()}

    def unattributed_ticks(self) -> dict[str, int]:
        """Span ticks per component no request pays for (yet): spans with
        no causal edge, and spans still waiting for their group span."""
        return {c: self._orphaned[c] + self._buffered[c] for c in COMPONENTS}

    @property
    def conservation(self) -> float:
        return _conservation(self._measured, self._attributed)

    def result(self) -> AttributionResult:
        """Snapshot the ledger (waiting spans count as unattributed)."""
        return AttributionResult(
            entries=[self._entries[k] for k in sorted(self._entries)],
            measured_ticks=dict(self._measured),
            attributed_ticks=dict(self._attributed),
            unattributed_ticks=self.unattributed_ticks(),
        )


# ----------------------------------------------------------------------
# Online cost model
# ----------------------------------------------------------------------
class CostModel:
    """EWMA of measured device service time per (ion, method, width).

    The *width* axis buckets the kernel's priced evaluation count by
    powers of two, so one key covers one (ion, quadrature rule,
    active-window width) regime — exactly the workload signature a
    measured-cost scheduler prices.  Unseen keys fall back to the
    analytic prior (per-task overhead + evals at the calibrated rate);
    every observation then pulls its key toward the measured truth with
    exponential forgetting.

    Prediction quality is tracked online: each :meth:`observe` first
    predicts, then updates, and the running mean absolute relative error
    is exported (and gated by the ``cost_attribution`` bench case).
    """

    def __init__(
        self,
        alpha: float = 0.25,
        prior_overhead_s: float = 0.0,
        prior_eval_rate: float = 2.16e9,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if prior_eval_rate <= 0.0:
            raise ValueError("prior_eval_rate must be positive")
        self.alpha = alpha
        self.prior_overhead_s = prior_overhead_s
        self.prior_eval_rate = prior_eval_rate
        #: key -> ``[mean_s, count]``.
        self._table: dict[tuple[str, str, int], list] = {}
        self._err_sum = 0.0
        self._err_n = 0

    @classmethod
    def from_spec(cls, spec, alpha: float = 0.25) -> "CostModel":
        """Seed the prior from a :class:`~repro.gpusim.device.DeviceSpec`.

        The prior per-task overhead is its context switch + launch + two
        PCIe latencies, and the prior throughput its calibrated
        ``eval_rate``, applied unscaled to priced ``evals`` (which already
        exclude window-elided work).
        """
        overhead = spec.context_switch_s + spec.kernel_launch_s + 2.0 * spec.pcie_latency_s
        return cls(alpha=alpha, prior_overhead_s=overhead, prior_eval_rate=spec.eval_rate)

    # ------------------------------------------------------------------
    def key(self, ion: str, method: str, evals: int) -> tuple[str, str, int]:
        """Table key of one task: a caller that prices and later observes
        the same task builds it once and uses the ``*_key`` methods."""
        return (ion, method, width_bucket(evals))

    def _prior(self, evals: int) -> float:
        return self.prior_overhead_s + evals / self.prior_eval_rate

    def predict_key(self, key: tuple[str, str, int], evals: int) -> float:
        """Predicted device service time of the task whose :meth:`key`
        is ``key``, in seconds."""
        row = self._table.get(key)
        return row[0] if row is not None else self._prior(evals)

    def observe(self, ion: str, method: str, evals: int, measured_s: float) -> None:
        """Fold one measured task cost into its key's EWMA."""
        self.ingest((((ion, method, width_bucket(evals)), evals, measured_s),))

    def observe_key(self, key: tuple[str, str, int], evals: int, measured_s: float) -> None:
        """:meth:`observe` for a caller holding the task's :meth:`key`."""
        self.ingest(((key, evals, measured_s),))

    def ingest(self, observations: Iterable[tuple]) -> None:
        """The one EWMA update, per ``(key, evals, measured_s)`` in order
        (:meth:`Attribution.drain_observations`' rows): score the
        prediction, then pull the key's ``[mean_s, count]`` row toward
        the measurement."""
        table, alpha = self._table, self.alpha
        err_sum, err_n = self._err_sum, self._err_n
        for key, evals, measured_s in observations:
            row = table.get(key)
            if measured_s > 0.0:
                predicted = row[0] if row is not None else self._prior(evals)
                err_sum += abs(predicted - measured_s) / measured_s
                err_n += 1
            if row is None or row[1] == 0:
                table[key] = [float(measured_s), 1]
            else:
                row[0] += alpha * (measured_s - row[0])
                row[1] += 1
        self._err_sum, self._err_n = err_sum, err_n

    # ------------------------------------------------------------------
    @property
    def n_keys(self) -> int:
        return len(self._table)

    @property
    def n_observations(self) -> int:
        return self._err_n

    @property
    def mean_abs_rel_error(self) -> float:
        """Running mean |predicted - measured| / measured before updates."""
        return self._err_sum / self._err_n if self._err_n else 0.0

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "prior_overhead_s": self.prior_overhead_s,
            "prior_eval_rate": self.prior_eval_rate,
            "error": {"sum": self._err_sum, "n": self._err_n},
            "keys": [
                {
                    "ion": ion,
                    "method": method,
                    "bucket": bucket,
                    "mean_s": mean_s,
                    "count": count,
                }
                for (ion, method, bucket), (mean_s, count) in sorted(self._table.items())
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CostModel":
        model = cls(
            alpha=doc["alpha"],
            prior_overhead_s=doc["prior_overhead_s"],
            prior_eval_rate=doc["prior_eval_rate"],
        )
        err = doc.get("error", {})
        model._err_sum = float(err.get("sum", 0.0))
        model._err_n = int(err.get("n", 0))
        for row in doc.get("keys", []):
            model._table[(row["ion"], row["method"], int(row["bucket"]))] = [
                float(row["mean_s"]), int(row["count"]),
            ]
        return model


# ----------------------------------------------------------------------
# Reachability + rendering helpers
# ----------------------------------------------------------------------
def kernel_root_map(tracer) -> list[tuple[int, Optional[int]]]:
    """(event index, request root id) of every device kernel sub-span.

    Walks the ``parent`` edges from each ingress/compute/egress span up
    to its request root; ``None`` marks a span with no reachable root.
    The acceptance check "every kernel interval reachable from exactly
    one request" is ``all(root is not None for _, root in ...)`` —
    uniqueness is structural (each event has at most one parent edge).
    """
    request_ids = set()
    parent_of: dict[int, int] = {}
    for ev in tracer.events:
        if ev.ph == "b" and ev.cat == "request" and ev.id is not None:
            request_ids.add(ev.id)
        if ev.id is not None and ev.parent:
            parent_of.setdefault(ev.id, ev.parent)
    out: list[tuple[int, Optional[int]]] = []
    for i, ev in enumerate(tracer.events):
        if ev.ph != "X" or ev.cat not in ("ingress", "compute", "egress"):
            continue
        node = ev.parent
        seen = set()
        while node and node not in request_ids and node not in seen:
            seen.add(node)
            node = parent_of.get(node)
        out.append((i, node if node in request_ids else None))
    return out


def render_cost_report(
    result: AttributionResult, model: Optional[CostModel] = None, top: int = 10
) -> str:
    """Terminal view of the per-request cost ledger."""
    lines = ["per-request attributed cost (fair-share over fused groups)"]
    lines.append(
        f"{'trace':>6} {'lane':<12} {'outcome':<12} {'compute (ms)':>13} "
        f"{'transfer (ms)':>14} {'wait (ms)':>10} {'total (ms)':>11}"
    )
    ranked = sorted(result.entries, key=lambda e: (-sum(e.ticks.values()), e.trace_id))
    for entry in ranked[:top]:
        d = entry.as_dict()
        lines.append(
            f"{entry.trace_id:>6} {entry.lane or '-':<12} {entry.outcome or '-':<12} "
            f"{d['compute_s'] * 1e3:>13.4f} {d['transfer_s'] * 1e3:>14.4f} "
            f"{d['wait_s'] * 1e3:>10.4f} {d['total_s'] * 1e3:>11.4f}"
        )
    if len(ranked) > top:
        lines.append(f"... {len(ranked) - top} more entries")
    doc = result.as_dict()
    measured, unattributed = doc["measured_s"], doc["unattributed_s"]
    lines.append(
        "measured: "
        + "  ".join(f"{c}={measured[c] * 1e3:.4f}ms" for c in COMPONENTS)
        + f"  conservation={result.conservation:.6f}"
    )
    if any(unattributed.values()):
        lines.append(
            "unattributed: "
            + "  ".join(f"{c}={unattributed[c] * 1e3:.4f}ms" for c in COMPONENTS)
        )
    if model is not None:
        lines.append(
            f"cost model: {model.n_keys} keys, {model.n_observations} observations, "
            f"mean |rel err|={model.mean_abs_rel_error:.4f}"
        )
    return "\n".join(lines)
