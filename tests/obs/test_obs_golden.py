"""Cross-commit guard on everything the observability stack outputs.

The same-commit tests prove that two runs of *this* checkout agree; they
cannot see a change that moves an exposition byte, a stored float, an
anomaly band or a ledger tick consistently.  The literals below were
recorded at commit 00aa2d5 (the parent of the PR that made every obs
consumer incremental) *before the first edit* and must never be
refreshed by a change that claims byte-identical output.

One declared exception: the four ``cost_model`` hashes were re-recorded
twice, first when the process-pool counters left ``KERNEL_COUNTERS`` and
with them the cost model's ``seeded_from`` provenance, then when that
provenance field itself left ``CostModel.to_dict()`` (it recorded
counters only the reference megabatch functions book, so it read zeros).

A second declared exception: the four ``events`` hashes — the *ordered*
stream — were re-recorded when single-slot devices began completing a
task in one heap event, which appends a task's three device spans at its
completion instead of one at the end of each phase.  ``EVENT_MULTISET``
was recorded at the parent of that change (9e15803) before its first
edit and passes on both sides: every event, to the last ts/dur bit, id,
parent and arg, is the one the parent emitted; only positions in the
list moved.  Nothing else in ``GOLDEN`` was touched.

A third declared exception: the five legacy ``repro_cache_*`` families
left the exposition (``repro_spectrum_cache_*`` exports the same values
under one name each), so ``renders``, ``final_render`` and ``tsdb`` were
re-recorded in every case, and in ``alarms`` everything the detector's
three ``repro_cache_{bytes,entries,lookups_total}`` twin anomalies
reached: ``n_anomalies`` (60 -> 57), ``anomalies``, ``structure``,
``events``, ``report`` and its ``EVENT_MULTISET``.  ``ledger`` and
``cost_model`` were not touched.

A fourth declared exception: a traced compile used to ask the plan cache
twice per group (once for the attribution weights, with no trace
parent), so tracing doubled ``repro_plan_cache_lookups_total{result=
"hit"}``.  With one lookup per group, ``observed`` and ``alarms`` were
re-recorded over parent eab203e: ``renders``, ``final_render``, ``tsdb``,
``structure`` (``plan-hit`` 79 -> 39), ``events`` and ``EVENT_MULTISET``,
and in ``alarms`` the two anomalies on that series, whose value, center
and band halved (``anomalies``; still 57).  The new multiset is the old
one less the 39 parentless ``plan-hit`` instants and the first group's
parented ``plan-hit``, whose ``plan-miss`` and ``plan-compile`` now carry
that group as parent.  ``ledger``, ``cost_model``, ``report``, ``zipf``
and ``burst`` were not touched.

Four cases: ``observed`` is the wall benchmark's ``serve_observed``
spec at 40 requests (every request crosses the whole stack), ``zipf``
has cache hits and coalesced followers (zero-cost ledger entries,
follower -> leader edges), ``burst`` runs under the batching config so
width > 1 groups reach the largest-remainder split, and ``alarms``
replays ``observed`` into an 8-point ring scraped at every batch with a
jumpy detector, so ring eviction, 57 anomaly events and their bus
instants are pinned too (the default detector never fires on these
traces).
"""

import hashlib
import json

import pytest

from repro.obs import AnomalyDetector, EventTracer, TimeSeriesStore
from repro.physics.plan import PLAN_CACHE
from repro.service.broker import ServiceConfig, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace

from tests.obs.test_attribution import ledger_fingerprint
from tests.obs.test_golden_trace import _structure

_BATCHING = ServiceConfig(
    n_service_workers=2, queue_capacity=96, batch_max=32,
    batch_width_max=32, batch_window_s=0.05,
)

_OBSERVED = TrafficSpec(
    n_requests=40, pattern="uniform", n_distinct=30000,
    mean_interarrival_s=0.4, tail_tol=1.0e-9, seed=7,
)
_PLAIN = ServiceConfig(n_service_workers=2)
_DEFAULT_OBS = (dict(cadence_s=0.5), dict())

#: case -> (traffic, service config, store kwargs, detector kwargs)
CASES = {
    "observed": (_OBSERVED, _PLAIN, *_DEFAULT_OBS),
    "zipf": (
        TrafficSpec(n_requests=60, pattern="zipf", n_distinct=12, seed=7),
        _PLAIN,
        *_DEFAULT_OBS,
    ),
    "burst": (
        TrafficSpec(
            n_requests=48, pattern="uniform", n_distinct=512, burst=16,
            n_bins=128, tolerance=1.0e-9, seed=7,
        ),
        _BATCHING,
        *_DEFAULT_OBS,
    ),
    "alarms": (
        _OBSERVED,
        _PLAIN,
        dict(cadence_s=0.0, capacity=8),
        dict(k=2.0, warmup=4, window=8),
    ),
}


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, default=lambda o: o.item())


class _RecordingStore(TimeSeriesStore):
    """Captures the exposition text the broker scrapes, at each instant."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self.renders: list[str] = []

    def scrape(self, registry, now: float) -> int:
        self.renders.append(_sha1(f"{now.hex()}\n{registry.render()}"))
        return super().scrape(registry, now)


def fingerprint(case: str) -> dict:
    spec, config, store_kw, detector_kw = CASES[case]
    # The plan-cache families read a process-global ledger: start it from zero.
    PLAN_CACHE.clear()
    tracer = EventTracer()
    tsdb = _RecordingStore(**store_kw)
    detector = AnomalyDetector(**detector_kw)
    broker, _ = run_trace(
        generate_trace(spec), config, tracer=tracer, tsdb=tsdb, anomaly=detector
    )
    records = [
        repr(
            (ev.ph, ev.name, ev.cat, ev.track, ev.ts.hex(),
             float(ev.dur).hex(), ev.id, ev.parent, _canon(ev.args))
        )
        for ev in tracer.events
    ]
    return {
        "renders": tsdb.renders,
        "final_render": _sha1(broker.registry().render()),
        "tsdb": _sha1(_canon(tsdb.to_dict())),
        "n_anomalies": len(detector.events),
        "anomalies": _sha1(_canon([e.as_dict() for e in detector.events])),
        "ledger": _sha1(ledger_fingerprint(broker.cost_report())),
        "cost_model": _sha1(_canon(broker.cost_model.to_dict())),
        "structure": _structure(tracer),
        "events": _sha1("".join(records)),
        "events_sorted": _sha1("".join(sorted(records))),
        "report": _sha1(_canon(broker.report())),
    }


GOLDEN = {'observed': {'renders': ['db01b3c5c7f2946ee2a839723edacb4eaffa7c48',
                          '13ab6f1e777c0666248e72db136b8476a8daae9a',
                          'e04c4ad7e6a6e009c9d676d02163345134c50f97',
                          '9903ede0e4ff7efcfc3774857715bede1d0d0669',
                          'd341b276ded455f60649521c0b6dc219dd5beabf',
                          '29df50f408f5b9e528f5a4a10921a83ed42bea45',
                          '4209ac5957f4eb27f2bf599c5869ba85a8ceca26',
                          '3b7e5f36db69ba2e284e94fb47f4e01069e33ac5',
                          '4949189f2b3f27a475bf7e65f8f75670d3f21594',
                          '3a5f67536fe2251dfa874e9e763cfedc6b87369e',
                          '06f37a087d548ea2ad5856070e57a88603ddca34',
                          '59610892db5f9375b2e9b99db37f540eb1ade02c',
                          'a18709c01a6e0cc46c00106880b3b4287c6f3eed'],
              'final_render': 'b869bd9ab2f5a3bf12244aba203428b6a3540395',
              'tsdb': '8612683df613546f545bfbe3c884fad456a418d8',
              'n_anomalies': 0,
              'anomalies': '97d170e1550eee4afc0af065b78cda302a97674c',
              'ledger': '737b6570a3c36d695ede0a87d438af74290e202f',
              'cost_model': '1d6c2ec34fd42e4026718227efdfc81c255a6543',
              'structure': {'event_counts': {'C||load': 2880,
                                             'C||queue_depth': 55,
                                             'X|batch|': 15,
                                             'X|compute|compute': 1440,
                                             'X|dispatch|': 15,
                                             'X|egress|d2h': 1440,
                                             'X|group|': 40,
                                             'X|ingress|h2d+launch': 1440,
                                             'X|task|': 1440,
                                             'X|wait|': 632,
                                             'b|request|request': 40,
                                             'e|request|request': 40,
                                             'i|cache|cache.insert': 40,
                                             'i|cache|cache.miss': 40,
                                             'i|coalesce|coalesce.open': 40,
                                             'i|coalesce|coalesce.resolve': 40,
                                             'i|plan|plan-compile': 1,
                                             'i|plan|plan-hit': 39,
                                             'i|plan|plan-miss': 1,
                                             'i|sched|sche_alloc': 1440},
                            'tracks': ['service/cache',
                                       'service/coalescer',
                                       'service/lane.interactive',
                                       'service/lane.survey',
                                       'service/plan-cache',
                                       'service/queue',
                                       'svc0/batches',
                                       'svc0/dispatch',
                                       'svc0/gpu0',
                                       'svc0/groups',
                                       'svc0/rank0',
                                       'svc0/rank1',
                                       'svc0/rank2',
                                       'svc0/rank3',
                                       'svc1/batches',
                                       'svc1/dispatch',
                                       'svc1/gpu0',
                                       'svc1/groups',
                                       'svc1/rank0',
                                       'svc1/rank1',
                                       'svc1/rank2',
                                       'svc1/rank3'],
                            'n_events': 11118},
              'events': '5077440b5b13b0df989ad5d7d3c2caf909a98240',
              'report': '370c06de3061aac430f37c31dfcc2b5f10c63746'},
 'zipf': {'renders': ['9ae8def70815d2492f871de4765e54daf74f50d2',
                      'f91a6b40308ef6abddcc0be3b584c79ea6054df5',
                      'd085a5c03426160f54562f743bf26a2df29294e7',
                      '2443983186bfc69829fa0604b631d54fc7d9467d'],
          'final_render': '6f8c330021e69d092fa4ab72e8701879fe1309ac',
          'tsdb': '8e294d30dedc2505f82094ab7c9b26e0011926ac',
          'n_anomalies': 0,
          'anomalies': '97d170e1550eee4afc0af065b78cda302a97674c',
          'ledger': '6b640e6aeeb6f7597d4f9309481418741a439ba0',
          'cost_model': '3a67f0be73472ae36d1a3e184ff2a59693aeba8e',
          'structure': {'event_counts': {'C||load': 792,
                                         'C||queue_depth': 16,
                                         'X|batch|': 5,
                                         'X|compute|compute': 396,
                                         'X|dispatch|': 5,
                                         'X|egress|d2h': 396,
                                         'X|group|': 11,
                                         'X|ingress|h2d+launch': 396,
                                         'X|task|': 396,
                                         'X|wait|': 320,
                                         'b|request|request': 60,
                                         'e|request|request': 60,
                                         'i|cache|cache.hit': 8,
                                         'i|cache|cache.insert': 11,
                                         'i|cache|cache.miss': 52,
                                         'i|coalesce|coalesce.attach': 41,
                                         'i|coalesce|coalesce.open': 11,
                                         'i|coalesce|coalesce.resolve': 11,
                                         'i|sched|sche_alloc': 396},
                        'tracks': ['service/cache',
                                   'service/coalescer',
                                   'service/lane.interactive',
                                   'service/lane.survey',
                                   'service/queue',
                                   'svc0/batches',
                                   'svc0/dispatch',
                                   'svc0/gpu0',
                                   'svc0/groups',
                                   'svc0/rank0',
                                   'svc0/rank1',
                                   'svc0/rank2',
                                   'svc0/rank3',
                                   'svc1/batches',
                                   'svc1/dispatch',
                                   'svc1/gpu0',
                                   'svc1/groups',
                                   'svc1/rank0',
                                   'svc1/rank1',
                                   'svc1/rank2',
                                   'svc1/rank3'],
                        'n_events': 3383},
          'events': '017b0ebfc4aa889bef778b8170a1332322b80b92',
          'report': 'bdcfd0f8344229515766cc791631c4b954f72c3d'},
 'burst': {'renders': ['a7ff010eb3d84b5deb7bf564aeedcc8e899b6d98',
                       'cb1609e7b8b9e1489cf2cdce0c2e5badd8711705',
                       '80528b498ef3697e2945b83a6589d35a76f60dbd'],
           'final_render': 'b01578766cdcb4ba971f6ac330e72036df0f7779',
           'tsdb': '4cd1c366657980afb0b26f99314f1dbef721bbbb',
           'n_anomalies': 0,
           'anomalies': '97d170e1550eee4afc0af065b78cda302a97674c',
           'ledger': '122a1bc89f05d1ffbd8d0ec9f50d342c15b18ce5',
           'cost_model': '0146256ead9e645a5b823cdc2b043584ab7c9ade',
           'structure': {'event_counts': {'C||load': 216,
                                          'C||queue_depth': 50,
                                          'X|batch|': 3,
                                          'X|compute|compute': 108,
                                          'X|dispatch|': 3,
                                          'X|egress|d2h': 108,
                                          'X|group|': 3,
                                          'X|ingress|h2d+launch': 108,
                                          'X|task|': 108,
                                          'X|wait|': 51,
                                          'b|request|request': 48,
                                          'e|request|request': 48,
                                          'i|batch|megabatch.assembled': 3,
                                          'i|cache|cache.insert': 47,
                                          'i|cache|cache.miss': 48,
                                          'i|coalesce|coalesce.attach': 1,
                                          'i|coalesce|coalesce.open': 47,
                                          'i|coalesce|coalesce.resolve': 47,
                                          'i|sched|sche_alloc': 108},
                         'tracks': ['service/cache',
                                    'service/coalescer',
                                    'service/lane.interactive',
                                    'service/lane.survey',
                                    'service/queue',
                                    'svc0/batches',
                                    'svc0/dispatch',
                                    'svc0/gpu0',
                                    'svc0/groups',
                                    'svc0/rank0',
                                    'svc0/rank1',
                                    'svc0/rank2',
                                    'svc0/rank3',
                                    'svc1/batches',
                                    'svc1/dispatch',
                                    'svc1/gpu0',
                                    'svc1/groups',
                                    'svc1/rank0',
                                    'svc1/rank1',
                                    'svc1/rank2',
                                    'svc1/rank3'],
                         'n_events': 1155},
           'events': '685337c136b77f06c7624d588c6d6784eba4507a',
           'report': '7f356e43d387ea01bca80da263fa8c3075c0037e'},
 'alarms': {'renders': ['db01b3c5c7f2946ee2a839723edacb4eaffa7c48',
                        'ba49e632692425816881a7310f9047486576617f',
                        '13ab6f1e777c0666248e72db136b8476a8daae9a',
                        'd8c407a50cb3d387646a979aa75e159d30c09bec',
                        'e04c4ad7e6a6e009c9d676d02163345134c50f97',
                        '2b5295c4d74bcea6ba7f366e3cd2d662d0cd838e',
                        '9903ede0e4ff7efcfc3774857715bede1d0d0669',
                        'd341b276ded455f60649521c0b6dc219dd5beabf',
                        '29df50f408f5b9e528f5a4a10921a83ed42bea45',
                        '4209ac5957f4eb27f2bf599c5869ba85a8ceca26',
                        '3b7e5f36db69ba2e284e94fb47f4e01069e33ac5',
                        '4949189f2b3f27a475bf7e65f8f75670d3f21594',
                        '3a5f67536fe2251dfa874e9e763cfedc6b87369e',
                        '06f37a087d548ea2ad5856070e57a88603ddca34',
                        '59610892db5f9375b2e9b99db37f540eb1ade02c',
                        'a18709c01a6e0cc46c00106880b3b4287c6f3eed'],
            'final_render': 'b869bd9ab2f5a3bf12244aba203428b6a3540395',
            'tsdb': 'd7920636da9a0cb61ad58dc7afd154a464301c3e',
            'n_anomalies': 57,
            'anomalies': 'c7ab1113f3de86f7a4c704c953bb0571a073893c',
            'ledger': '737b6570a3c36d695ede0a87d438af74290e202f',
            'cost_model': '1d6c2ec34fd42e4026718227efdfc81c255a6543',
            'structure': {'event_counts': {'C||load': 2880,
                                           'C||queue_depth': 55,
                                           'X|batch|': 15,
                                           'X|compute|compute': 1440,
                                           'X|dispatch|': 15,
                                           'X|egress|d2h': 1440,
                                           'X|group|': 40,
                                           'X|ingress|h2d+launch': 1440,
                                           'X|task|': 1440,
                                           'X|wait|': 632,
                                           'b|request|request': 40,
                                           'e|request|request': 40,
                                           'i|anomaly|anomaly': 57,
                                           'i|cache|cache.insert': 40,
                                           'i|cache|cache.miss': 40,
                                           'i|coalesce|coalesce.open': 40,
                                           'i|coalesce|coalesce.resolve': 40,
                                           'i|plan|plan-compile': 1,
                                           'i|plan|plan-hit': 39,
                                           'i|plan|plan-miss': 1,
                                           'i|sched|sche_alloc': 1440},
                          'tracks': ['service/cache',
                                     'service/coalescer',
                                     'service/lane.interactive',
                                     'service/lane.survey',
                                     'service/plan-cache',
                                     'service/queue',
                                     'svc0/batches',
                                     'svc0/dispatch',
                                     'svc0/gpu0',
                                     'svc0/groups',
                                     'svc0/rank0',
                                     'svc0/rank1',
                                     'svc0/rank2',
                                     'svc0/rank3',
                                     'svc1/batches',
                                     'svc1/dispatch',
                                     'svc1/gpu0',
                                     'svc1/groups',
                                     'svc1/rank0',
                                     'svc1/rank1',
                                     'svc1/rank2',
                                     'svc1/rank3'],
                          'n_events': 11175},
            'events': '7a531ebd1232e0754921975540628b14a01429e9',
            'report': 'eeb624ca72d53f863f95f6f2892bfb06198ae968'}}


#: sha1 of the *sorted* event records per case, recorded at 9e15803 — the
#: parent of the PR that completes a task on a single-slot device in one
#: heap event and therefore appends its three spans at completion instead
#: of one per phase.  The multiset of events (every ts/dur bit, id, parent
#: and arg) is pinned here across that change; only the append order in
#: ``events`` moved.
EVENT_MULTISET = {
    "alarms": "d0e6ed1802c29aadb7b560da3bf8935922a031c9",
    "burst": "75840bcaafdd6b64886f807104a07237e76d1139",
    "observed": "a384f73c8f6a95ec1fae208582a2661adebaf048",
    "zipf": "630945e0b8666e8cc69ecd97970d170d9d543875",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fingerprint_matches_parent_commit(case):
    got = fingerprint(case)
    want = {**GOLDEN[case], "events_sorted": EVENT_MULTISET[case]}
    for part in want:
        assert got[part] == want[part], part
    assert set(got) == set(want)


def test_cases_exercise_the_branches_they_are_named_for():
    """The guard is only as good as its coverage."""
    counts = {c: GOLDEN[c]["structure"]["event_counts"] for c in GOLDEN}
    assert len(GOLDEN["observed"]["renders"]) >= 10
    assert counts["zipf"]["i|cache|cache.hit"] > 0
    assert counts["zipf"]["i|coalesce|coalesce.attach"] > 0
    assert counts["burst"]["i|batch|megabatch.assembled"] > 0
    assert counts["burst"]["X|group|"] < counts["burst"]["b|request|request"]
    assert GOLDEN["alarms"]["n_anomalies"] > 0
    assert counts["alarms"]["i|anomaly|anomaly"] == GOLDEN["alarms"]["n_anomalies"]
