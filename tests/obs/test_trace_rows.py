"""Task-level tracing as rows: same events, same order, far fewer objects.

A traced task is recorded as a few flat rows (alloc, device completion,
task end; the first and last carry its two load samples) that ``EventTracer.events`` expands, on
first read, into exactly the ``TraceEvent`` list the eager path used to
build.  Four guards:

(a) cross-commit goldens — ordered and sorted event-stream hashes
    recorded at 92a6c94 (the parent of the row change) *before the first
    edit*, for the configurations ``test_obs_golden.py`` does not reach:
    a standalone ``HybridRunner`` under sync / predictive / async
    dispatch, on a one-event (``TESLA_C2075``) and a phased
    (``TESLA_K20``) device, with a queue short enough to force the CPU
    fallback, with and without a device failing mid-run;
(b) ``Attribution`` fed rows ends where a one-pass fold of the expanded
    events does, in one ingest or in instalments;
(c) the budget as literals: rows per task, and no task-level
    ``TraceEvent`` built before ``.events`` is first read;
(d) the view behaves as the list it replaces.
"""

import bisect
import functools
import hashlib
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.atomic.database import AtomicConfig
from repro.cluster.simclock import SimClock
from repro.core.calibration import CostModel
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.task import Task, TaskKind
from repro.gpusim.device import TESLA_C2075, TESLA_K20, SimulatedGPU
from repro.obs import EventTracer, tracer as tracer_mod
from repro.obs.attribution import COMPONENTS, TICKS_PER_S, Attribution, CostEntry
from repro.obs.attribution import CostModel as SpanCostModel
from repro.obs.attribution import _split_ticks, ion_from_label
from repro.obs.tracer import TraceEvent
from repro.physics.plan import PLAN_CACHE
from repro.service.broker import run_trace
from repro.service.loadgen import generate_trace

from tests.obs.test_attribution import ledger_fingerprint
from tests.obs.test_obs_golden import CASES as SERVE_CASES
from tests.obs.test_obs_golden import GOLDEN as SERVE_GOLDEN
from tests.obs.test_obs_golden import _canon

MODES = {
    "sync": dict(),
    "predictive": dict(scheduler_kind="predictive"),
    "async": dict(async_depth=2),
}
DEVICES = {"c2075": TESLA_C2075, "k20": TESLA_K20}
#: Virtual second at which GPU 0 dies in the ``fail`` cases: mid-run,
#: with tasks of several ranks in flight on it.
FAIL_AT_S = 2.0


@functools.lru_cache(maxsize=None)
def _tasks():
    return build_tasks(
        WorkloadSpec(n_points=8, bins_per_level=200_000, db_config=AtomicConfig.tiny())
    )


def event_records(tracer) -> list[str]:
    return [
        repr(
            (ev.ph, ev.name, ev.cat, ev.track, ev.ts.hex(),
             float(ev.dur).hex(), ev.id, ev.parent, _canon(ev.args))
        )
        for ev in tracer.events
    ]


def traced_run(mode: str, device: str, fail: bool, monkeypatch, tracer=None, hook=None):
    """One contended batch (8 ranks, 2 GPUs, 3 slots a queue) on its own
    clock; with ``fail`` GPU 0 dies at ``FAIL_AT_S``, and each task it held
    or is handed after that reruns on its rank's CPU.  ``hook(clock)`` may
    schedule extra observers."""
    tracer = tracer if tracer is not None else EventTracer()
    clock = SimClock()
    if fail:
        original = SimulatedGPU.__init__

        def dies_mid_run(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if self.index == 0:
                clock.call_at(FAIL_AT_S, SimulatedGPU.fail, self)

        monkeypatch.setattr(SimulatedGPU, "__init__", dies_mid_run)
    config = HybridConfig(
        n_workers=8, n_gpus=2, max_queue_length=3, device=DEVICES[device],
        cost=CostModel(point_overhead_s=0.0), stagger_s=0.01, **MODES[mode],
    )
    handle = HybridRunner(config, tracer=tracer).spawn_batch(_tasks(), clock)
    if hook is not None:
        hook(clock)
    clock.run()
    return tracer, handle.alive  # alive: the batch stalled


def stream_hashes(tracer, stalled: bool) -> tuple[bool, int, str, str]:
    records = event_records(tracer)
    sha1 = lambda parts: hashlib.sha1("".join(parts).encode()).hexdigest()
    return stalled, len(records), sha1(records), sha1(sorted(records))


CASES = sorted(
    (mode, device, fail)
    for mode in MODES for device in DEVICES for fail in (False, True)
)

#: (mode, device, fail) -> (batch stalled, events, ordered sha1, sorted sha1)
#: at 92a6c94; the ``fail`` cases re-recorded when a dead device began to
#: answer its waiters with ``LOST`` (no case stalls since).
GOLDEN = {
    ("async", "c2075", False): (
        False, 1977,
        "43b9dd67fb4aea3001c27f9447b41aed6e4f6c18",
        "e945b2bd3f5b11a392a47e7827c64e989931d177",
    ),
    ("async", "c2075", True): (
        False, 1775,
        "e10d08aede34b3c09a84e46a1cf72e988b486ab0",
        "c64399ecf024269d1c1b0578e2b7510137c2ba6d",
    ),
    ("async", "k20", False): (
        False, 1997,
        "a50d93cb1b2c000e3fe8cdc83950c36245bc2d8e",
        "bdbc0d500e8b2a429bd8e63c1f4e13359a359073",
    ),
    ("async", "k20", True): (
        False, 1854,
        "c724b3065f7bb9190f13308670199d6db1c5bb7f",
        "fccfb4618debef4513fe7db481bba66d35858e62",
    ),
    ("predictive", "c2075", False): (
        False, 2203,
        "3b0be9006c384eb59ad5c388a2cfd1b2709b8a20",
        "fc7f293d44175534e16e596a1abfdbf500421abe",
    ),
    ("predictive", "c2075", True): (
        False, 1887,
        "f7abd488f8aaa3d786f62341aa7bd8d28b8341b3",
        "4f093ebb24498df2b4f8b62e7a1b45c392e08f44",
    ),
    ("predictive", "k20", False): (
        False, 2016,
        "ab97b45ca84e8e0252f647179bc6958510dcb0c0",
        "2bf2f82cc0d33e3e126f8156579eecaed0d03f82",
    ),
    ("predictive", "k20", True): (
        False, 1873,
        "4467bf88128aeb51c37908b4af4a25725d9eab7a",
        "fb8b9eae054ba2535f72a4b5832d76f395fce07c",
    ),
    ("sync", "c2075", False): (
        False, 2260,
        "256178a3a8a4424140f80ef5ad43af26d95198d2",
        "41bdc890dabbb31ca8f0b8767fa378fb7c5ffd03",
    ),
    ("sync", "c2075", True): (
        False, 1954,
        "591a6a205fe29423119889d864555db0fdaab043",
        "be33d445826688af11ccb9f7108f0647175ca946",
    ),
    ("sync", "k20", False): (
        False, 2169,
        "4d2b2082f3a0b37ea251c8c8f9a68b2a70243074",
        "97c9949fd017b980e326ca8bce71cc90cf2d715a",
    ),
    ("sync", "k20", True): (
        False, 2053,
        "5aaee135489c4e02aacf545c9dc6066bf4268a46",
        "f91975d3e5ef39adbcc7db52d042f7ce30a6551d",
    ),
}


@pytest.mark.parametrize("mode,device,fail", CASES)
def test_standalone_stream_matches_parent_commit(mode, device, fail, monkeypatch):
    got = stream_hashes(*traced_run(mode, device, fail, monkeypatch))
    assert got == GOLDEN[(mode, device, fail)]


#: mode -> (events, ordered sha1, sorted sha1) of a run with no GPU,
#: recorded at 5c2df5d (the parent of the three-row change).
CPU_ONLY_GOLDEN = {
    "sync": (
        577,
        "f75700f14b7b6205c9753e4a4fc97e224da58b13",
        "6ae1aa8cc92b9d9cf975cc5eef10976b2ecf129c",
    ),
    "async": (
        577,
        "2543171c5220a33f4be74c982c1652d4c9c850a1",
        "2e47510f617f86e46b0257cf8c52dbc3c2b8c2af",
    ),
}


@pytest.mark.parametrize("mode", sorted(CPU_ONLY_GOLDEN))
def test_cpu_only_stream_matches_parent_commit(mode):
    """With ``n_gpus=0`` every decision shows no device: its
    ``sche_alloc`` reads ``loads: []`` and ``histories: []``."""
    tracer, clock = EventTracer(), SimClock()
    config = HybridConfig(
        n_workers=8, n_gpus=0, max_queue_length=3,
        cost=CostModel(point_overhead_s=0.0), stagger_s=0.01, **MODES[mode],
    )
    HybridRunner(config, tracer=tracer).spawn_batch(_tasks(), clock)
    clock.run()
    allocs = [ev.args for ev in tracer.events if ev.name == "sche_alloc"]
    assert len(allocs) == len(_tasks())
    assert all(a["loads"] == [] and a["histories"] == [] for a in allocs)
    assert stream_hashes(tracer, False)[1:] == CPU_ONLY_GOLDEN[mode]


# ----------------------------------------------------------------------
# (b) rows and their expansion attribute alike
# ----------------------------------------------------------------------
_durations = st.floats(min_value=1.0e-7, max_value=2.0, allow_nan=False)

#: One task: (kind, four positive durations, evals).  ``whole`` is a
#: single-slot device's one DEVICE row, ``phased`` a multi-slot device's
#: three PHASE rows, ``cpu`` the fallback; the first duration is the
#: queue wait where the kind ends in ``+wait``.
_task = st.tuples(
    st.sampled_from(["whole", "whole+wait", "phased", "phased+wait", "cpu"]),
    st.tuples(_durations, _durations, _durations, _durations),
    st.integers(min_value=1, max_value=10**7),
)
_group = st.tuples(
    st.lists(st.floats(min_value=0.5, max_value=1.0e6), min_size=1, max_size=8),
    st.lists(_task, min_size=1, max_size=4),
)
_batches = st.lists(st.lists(_group, min_size=1, max_size=3), min_size=1, max_size=3)


def _record_batches(batches, interleave: int) -> EventTracer:
    """Hand-built service trace in the runner's emission order: request
    roots, then per batch its tasks' rows (alloc, device, end — tasks of
    a batch's groups interleaved round-robin) and, last, its group spans."""
    clock = SimpleNamespace(now=0.0)
    tracer = EventTracer(clock)
    lane = tracer.track("service", "lane.interactive")
    rank, gpu, groups_track = (tracer.track("svc0", t) for t in ("rank0", "gpu0", "groups"))
    for batch in batches:
        landing = []
        queues = []
        for weights, tasks in batch:
            members = []
            for _ in weights:
                members.append(tracer.new_id())
                tracer.async_begin(lane, "request", members[-1], cat="request",
                                   args={"key": f"k{members[-1]}", "outcome": "queued"})
            gid = tracer.new_id()
            landing.append((gid, members, weights))
            queues.append([(gid, task) for task in tasks])
        order = []
        while any(queues):  # round-robin over the groups, ``interleave`` apart
            for queue in queues[interleave % len(queues):] + queues[:interleave % len(queues)]:
                if queue:
                    order.append(queue.pop(0))
        for gid, (kind, (wait, d_in, d_c, d_out), evals) in order:
            sid = tracer.new_id()
            started = clock.now
            clock.now += 0.01
            tracer.load(gpu, clock.now, 1)
            tracer.task_alloc(rank, 0, (1,), (sid,), sid)
            submitted = clock.now
            kernel = Task(
                0, TaskKind.ION, label=f"req{gid}/O+{evals % 8}", n_integrals=evals,
                bytes_in=64, bytes_out=32,
            )
            if kind == "cpu":
                clock.now += d_c
                tracer.task_end(rank, f"task{sid}", started, sid, gid, -1, 0.0)
                continue
            wait_s = wait if kind.endswith("+wait") else 0.0
            t0 = submitted + wait_s
            t1 = t0 + d_in
            t2 = t1 + d_c
            t3 = t2 + d_out
            if kind.startswith("whole"):
                clock.now = t3
                tracer.device_task(gpu, sid, kernel, t0, t1, t2, t3)
            else:
                for phase, (a, b) in enumerate(((t0, t1), (t1, t2), (t2, t3))):
                    clock.now = b
                    tracer.device_phase(gpu, sid, kernel, phase, a, b)
            tracer.load(gpu, clock.now, 0)
            tracer.task_end(rank, f"task{sid}", started, sid, gid, 0, wait_s,
                            d_in + d_c + d_out, submitted, t0)
        for gi, (gid, members, weights) in enumerate(landing):
            tracer.span(groups_track, f"g{gi}", 0.0, clock.now, cat="group", id=gid,
                        parent=members[0],
                        args={"members": members, "weights": weights, "method": "simpson"})
    return tracer


def _fold_in_instalments(tracer: EventTracer, cuts: list[int]) -> tuple:
    """Ingest the log up to each cut and to the end; returns what the last
    instalment left behind."""
    ledger = Attribution(tracer)
    model = SpanCostModel()
    log = tracer.log
    for cut in cuts + [len(log)]:
        tracer.log = log[:cut]
        ledger.ingest()
        model.ingest(ledger.drain_observations())
    tracer.log = log
    return (
        ledger_fingerprint(ledger.result()),
        ledger.unattributed_ticks(),
        ledger.lane_seconds(),
        model.to_dict(),
    )


_COMPONENT = {"ingress": "transfer", "compute": "compute", "egress": "transfer", "wait": "wait"}


def _reference_fold(tracer: EventTracer, cuts: list[int]) -> tuple:
    """The reference for ``_fold_in_instalments``: one pass over the
    *expanded* events, nothing buffered.  Each component span goes to its
    task span, each task to its group span, and every span is split over
    the group's members by largest remainder on the group's weights.  The
    cost model sees each device task once, in task-span order within the
    instalment whose cut first holds both its task span and its group span
    (a cut between two group spans of one batch settles the first group's
    tasks an ingest earlier, and the EWMA is order-dependent)."""
    events = list(tracer.events)
    parts: dict[int, list] = {}  # task span id -> its component spans
    groups: dict[int, tuple] = {}  # group span id -> (event index, args)
    entries: dict[int, CostEntry] = {}
    for j, ev in enumerate(events):
        if ev.ph == "X" and ev.cat in _COMPONENT:
            parts.setdefault(ev.parent, []).append(ev)
        elif ev.ph == "X" and ev.cat == "group":
            groups[ev.id] = (j, ev.args)
        elif ev.ph == "b" and ev.cat == "request":
            entries[ev.id] = CostEntry(
                ev.id, ev.args["key"], tracer.tracks[ev.track].thread[len("lane."):],
                ev.args["outcome"], ev.parent or 0,
            )
    ticks = lambda ev: round(ev.dur * TICKS_PER_S)
    measured = {c: 0 for c in COMPONENTS}
    observations, payers = [], set()
    for j, ev in enumerate(events):
        if ev.ph != "X" or ev.cat != "task":
            continue
        at, group = groups[ev.parent]
        members = [entries[m] for m in group["members"]]
        spans = [(_COMPONENT[p.cat], ticks(p)) for p in parts.get(ev.id, ())]
        if ev.args["placement"] == "cpu":
            spans.append(("compute", ticks(ev)))
        for comp, total in spans:
            measured[comp] += total
            for entry, share in zip(members, _split_ticks(total, group["weights"])):
                entry.ticks[comp] += share
        payers.update(m.trace_id for m in members)
        kernel = [p for p in parts.get(ev.id, ()) if p.cat != "wait"]
        if kernel:
            (args,) = [p.args for p in kernel if p.cat == "compute"]
            observations.append((
                (bisect.bisect_right(cuts, max(j, at)), j),
                (ion_from_label(args["label"]), group["method"], args["evals"],
                 sum(map(ticks, kernel)) / TICKS_PER_S),
            ))
    model = SpanCostModel()
    for _, (ion, method, evals, measured_s) in sorted(observations):
        model.observe_key((ion, method, int(evals).bit_length()), evals, measured_s)
    lanes: dict[tuple[str, str], float] = {}
    for tid in sorted(payers):
        for comp, total in entries[tid].ticks.items():
            key = (entries[tid].lane or "unknown", comp)
            lanes[key] = lanes.get(key, 0.0) + total / TICKS_PER_S
    ledger = [entries[tid] for tid in sorted(entries)]
    attributed = {c: sum(e.ticks[c] for e in ledger) for c in COMPONENTS}
    return (
        ledger_fingerprint(SimpleNamespace(
            entries=ledger, measured_ticks=measured, attributed_ticks=attributed,
        )),
        {c: 0 for c in COMPONENTS},
        lanes,
        model.to_dict(),
    )


class TestRowsAttributeAsTheirEvents:
    @settings(max_examples=60, deadline=None)
    @example(  # a cut between the group spans of two tasks of one key
        batches=[[([1.0], [("whole", (0.1, 0.2, 0.3, 0.4), 8)]),
                  ([1.0], [("whole", (0.1, 0.7, 0.9, 0.4), 8)])]],
        interleave=1, cuts=[0.95],
    )
    @given(
        batches=_batches,
        interleave=st.integers(min_value=0, max_value=2),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
    )
    def test_ledger_and_cost_model_are_equal(self, batches, interleave, cuts):
        record = lambda: _record_batches(batches, interleave)
        rows = record()
        assert any(item.__class__ is tuple for item in rows.log)
        # An ingest falls between emissions, never inside one: move each
        # cut past the padding of the row it would split.
        at = []
        for cut in sorted(int(c * len(rows.log)) for c in cuts):
            while cut < len(rows.log) and rows.log[cut] is None:
                cut += 1
            at.append(cut)
        whole = _fold_in_instalments(rows, [])
        assert whole == _reference_fold(record(), [])
        in_parts = _fold_in_instalments(record(), at)
        assert in_parts[:3] == whole[:3]
        assert in_parts == _reference_fold(record(), at)

    def test_a_width_eight_group_splits_every_span(self):
        """The example the property must contain: one group of eight
        payers, a waited whole-device task, a phased one and a fallback."""
        durations = (0.25, 0.125, 1.5, 0.0625)
        batches = [[(
            [3.0, 1.0, 1.0, 2.5, 7.0, 1.0, 4.0, 1.5],
            [("whole+wait", durations, 640), ("phased", durations, 64), ("cpu", durations, 8)],
        )]]
        rows = _record_batches(batches, 0)
        ledger = Attribution(rows)
        assert ledger.ingest() == len(rows.log) and ledger.ingest() == 0
        result = ledger.result()
        assert result.conservation == 1.0
        assert len(result.entries) == 8 and all(sum(e.ticks.values()) for e in result.entries)
        assert [evals for _, evals, _ in ledger.drain_observations()] == [640, 64]
        assert not any(ledger.unattributed_ticks().values())

    #: Every branch ``Attribution._settle`` takes, in one log: groups of
    #: one member and of several, waited and unwaited whole-device and
    #: phased tasks, CPU fallbacks, and one (ion, method, bucket) key
    #: observed across groups and batches, so the EWMA order shows.
    MIXED = [
        [([1.0], [("whole", (0.3, 0.1, 0.7, 0.2), 640), ("cpu", (0.1, 0.2, 0.3, 0.4), 8),
                  ("phased+wait", (0.05, 0.2, 0.9, 0.1), 648)]),
         ([3.0, 1.0, 2.5], [("phased+wait", (0.2, 0.15, 1.1, 0.3), 64),
                            ("whole+wait", (0.7, 0.05, 0.6, 0.25), 656),
                            ("cpu", (0.1, 0.3, 0.5, 0.2), 8)])],
        [([2.0, 7.0], [("phased", (0.1, 0.35, 0.45, 0.15), 664), ("whole", (0.3, 0.3, 0.3, 0.3), 72)]),
         ([1.0], [("whole+wait", (0.9, 0.1, 0.2, 0.05), 640), ("cpu", (0.2, 0.2, 0.2, 0.2), 8)])],
        [([1.0, 1.0, 1.0, 4.0], [("whole", (0.1, 0.6, 0.65, 0.1), 648), ("phased", (0.2, 0.1, 0.4, 0.3), 80)]),
         ([5.0], [("phased", (0.4, 0.3, 0.25, 0.35), 656)])],
    ]
    #: Recorded at eab203e, the parent of the change that rewrote the
    #: settle loop, before its first edit: the ledger (the same at every
    #: cut) and the cost model at each of ``_mixed_cuts()``'s cut lists.
    MIXED_LEDGER = "461ca424eb72b1ece25442802787497bb9f7c2a7"
    MIXED_MODELS = "aa5a2b3c6db109d74965accc3d89197737867465"

    @staticmethod
    def _mixed_cuts(log) -> list[list[int]]:
        """Twenty-four seeded instalment cut lists of the MIXED log."""
        rng = random.Random(20261017)
        out = []
        for _ in range(24):
            cuts = sorted(rng.randrange(len(log)) for _ in range(rng.randint(0, 6)))
            for j, cut in enumerate(cuts):  # past the padding of the row it splits
                while cut < len(log) and log[cut] is None:
                    cut += 1
                cuts[j] = cut
            out.append(cuts)
        return out

    def test_every_settle_branch_at_random_cuts(self):
        record = lambda: _record_batches(self.MIXED, 1)
        cut_lists = self._mixed_cuts(record().log)
        whole = _fold_in_instalments(record(), [])
        assert whole == _reference_fold(record(), [])
        models = []
        for cuts in cut_lists:
            got = _fold_in_instalments(record(), cuts)
            assert got[:3] == whole[:3]  # the integer ledger ignores the cuts
            models.append(got[3])
        assert hashlib.sha1(whole[0].encode()).hexdigest() == self.MIXED_LEDGER
        assert hashlib.sha1(_canon(models).encode()).hexdigest() == self.MIXED_MODELS


# ----------------------------------------------------------------------
# (c) the budget, as counts
# ----------------------------------------------------------------------
#: Task-level event kinds — what a row stands for — as ``_structure`` keys.
TASK_LEVEL = (
    "C||load", "i|sched|sche_alloc", "X|ingress|h2d+launch", "X|compute|compute",
    "X|egress|d2h", "X|wait|", "X|task|",
)


def _kind(ph: str, name: str, cat: str) -> str:
    named = ph in ("b", "e", "i", "C") or cat in ("ingress", "compute", "egress")
    return "|".join((ph, cat, name if named else ""))


@pytest.fixture
def constructions(monkeypatch):
    """Counts every ``TraceEvent`` the tracer module builds, by kind."""
    built = Counter()

    def counting(ph, name, cat, *rest):
        built[_kind(ph, name, cat)] += 1
        return TraceEvent(ph, name, cat, *rest)

    monkeypatch.setattr(tracer_mod, "TraceEvent", counting)
    return built


def _observed_run():
    spec, config, _, _ = SERVE_CASES["observed"]
    PLAN_CACHE.clear()
    tracer = EventTracer()
    broker, _ = run_trace(generate_trace(spec), config, tracer=tracer)
    return tracer, broker


class TestBudget:
    #: The ``observed`` golden case: 40 requests x 36 ion tasks.
    TASKS = 1440
    ROWS = 4320  # per task: alloc, device, end (the two load samples ride on them)
    SLOTS = 11118  # = events: a row standing for k events holds k slots
    EAGER = 406  # request-, batch- and cache-level events, built as emitted

    def test_rows_per_task_and_no_task_event_before_the_first_read(self, constructions):
        tracer, broker = _observed_run()
        broker.cost_report()  # attribution reads rows, not events
        rows = [item for item in tracer.log if item.__class__ is tuple]
        assert len(rows) == self.ROWS and len(rows) / self.TASKS == 3.0
        assert len(tracer.log) == len(tracer.events) == self.SLOTS  # len() expands nothing
        assert sum(constructions[k] for k in TASK_LEVEL) == 0
        assert sum(constructions.values()) == self.EAGER
        list(tracer.events)
        counts = SERVE_GOLDEN["observed"]["structure"]["event_counts"]
        assert {k: constructions[k] for k in TASK_LEVEL} == {k: counts[k] for k in TASK_LEVEL}
        assert sum(constructions.values()) == self.SLOTS
        list(tracer.events), tracer.events[0], tracer.events[-5:]
        assert sum(constructions.values()) == self.SLOTS  # expanded once


# ----------------------------------------------------------------------
# (d) the view is the list it replaces
# ----------------------------------------------------------------------
class TestEventsView:
    @pytest.mark.parametrize("mode,device", [("sync", "k20"), ("predictive", "c2075")])
    def test_reads_mid_run_change_nothing(self, mode, device, monkeypatch):
        whole, _ = traced_run(mode, device, False, monkeypatch)
        piecewise = EventTracer()
        seen = []

        def reads(clock):
            for at in (0.5, 1.0, 1.0, 3.0, 7.5):
                clock.call_at(at, lambda _a: seen.append(list(piecewise.events)), None)

        traced_run(mode, device, False, monkeypatch, tracer=piecewise, hook=reads)
        assert 0 < len(seen[0]) < len(seen[-1]) < len(piecewise.events)
        final = list(piecewise.events)
        for partial in seen:  # a prefix, and the very same objects
            assert all(a is b for a, b in zip(partial, final))
        assert event_records(piecewise) == event_records(whole)
        assert piecewise.log == final  # nobody reads rows here: each gave way

    def test_len_index_slice_iterate_as_a_list(self, monkeypatch, constructions):
        tracer, _ = traced_run("sync", "c2075", False, monkeypatch)
        view = tracer.events
        assert len(view) == len(tracer.log) == GOLDEN[("sync", "c2075", False)][1]
        assert sum(constructions.values()) == 1  # the eager batch span; len() built nothing
        as_list = list(view)
        assert len(as_list) == len(view) and bool(view)
        assert view[0] is as_list[0] and view[-1] is as_list[-1]
        assert view[3:9] == as_list[3:9] and view[::-7] == as_list[::-7]
        assert as_list == list(tracer.events)
        assert as_list[5] in view and view.index(as_list[5]) == 5
        assert list(reversed(view)) == as_list[::-1]
        with pytest.raises(IndexError):
            view[len(view)]
        assert not EventTracer().events and list(EventTracer().events) == []

    def test_eager_events_and_rows_keep_their_order(self):
        clock = SimpleNamespace(now=1.0)
        tracer = EventTracer(clock)
        kernel = Task(
            0, TaskKind.ION, label="pt0/O+7", n_integrals=10, evals_per_integral=65,
            bytes_in=8, bytes_out=16,
        )
        tracer.instant(0, "before")
        tracer.device_task(1, 7, kernel, 0.0, 0.25, 0.75, 1.0)
        tracer.instant(0, "between")
        tracer.task_end(2, "pt0/O+7", 0.0, 7, 0, 1, 0.5, 1.0, 0.0, 0.5)
        tracer.instant(0, "after")
        assert tracer.log[2:4] == [None, None] and tracer.log[6] is None
        assert [e.name for e in tracer.events] == [
            "before", "h2d+launch", "compute", "d2h", "between",
            "queue-wait", "pt0/O+7", "after",
        ]
        assert tracer.events[5].parent == tracer.events[6].id == 7

    def test_an_expanded_row_gives_way_unless_still_to_be_read(self):
        """In place: the log never holds a row beside its events, except
        from the cursor of a bound ``Attribution`` on."""
        tracer = EventTracer(SimpleNamespace(now=1.0))
        kernel = Task(
            0, TaskKind.ION, label="pt0/O+7", n_integrals=10, evals_per_integral=65,
            bytes_in=8, bytes_out=16,
        )
        ledger = Attribution(tracer)
        tracer.device_task(1, 7, kernel, 0.0, 0.25, 0.75, 1.0)
        ledger.ingest()  # read as a row: slots 0-2
        tracer.task_end(2, "pt0/O+7", 0.0, 7, 0, 1, 0.5, 1.0, 0.0, 0.5)
        first = list(tracer.events)
        assert tracer.log[:3] == first[:3]
        assert tracer.log[3][0] == tracer_mod.END and tracer.log[4] is None
        ledger.ingest()  # the END row, still a row
        assert [evals for _, evals, _ in ledger.drain_observations()] == []  # no group: waits
        tracer.load(1, 1.0, 0)
        ledger.ingest()
        assert all(a is b for a, b in zip(first, tracer.events))
        assert tracer.log == list(tracer.events) and len(tracer.log) == 6

    def test_reads_between_ingests_leave_the_ledger_alone(self):
        """A served run whose tracer is read at every eager span — batch
        and group spans land while the other worker's tasks are in flight
        and the ledger's cursor lags — attributes as one never read."""

        class ReadsItself(EventTracer):
            unread = 0

            def span(self, *args, **kwargs):
                super().span(*args, **kwargs)
                self.unread = max(self.unread, len(self.log) - self.rows_unread)
                for _ in self.events:
                    pass

        def outcome(tracer):
            spec, config, _, _ = SERVE_CASES["observed"]
            PLAN_CACHE.clear()
            broker, _ = run_trace(generate_trace(spec), config, tracer=tracer)
            return (ledger_fingerprint(broker.cost_report()),
                    broker.cost_model.to_dict(), event_records(tracer))

        reading = ReadsItself()
        assert outcome(reading) == outcome(EventTracer())
        assert reading.unread > 0  # rows were expanded ahead of the ledger
        assert reading.log == list(reading.events)  # and none outlived both


if __name__ == "__main__":  # record: PYTHONPATH=src:. python tests/obs/test_trace_rows.py
    import pprint

    mp = pytest.MonkeyPatch()
    out = {}
    for case in CASES:
        out[case] = stream_hashes(*traced_run(*case, mp))
        mp.undo()
    pprint.pprint(out, width=100)
