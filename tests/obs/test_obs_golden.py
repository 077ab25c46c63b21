"""Cross-commit guard on everything the observability stack outputs.

The same-commit tests prove that two runs of *this* checkout agree; they
cannot see a change that moves an exposition byte, a stored float, an
anomaly band or a ledger tick consistently.  The literals below were
recorded at commit 00aa2d5 (the parent of the PR that made every obs
consumer incremental) *before the first edit* and must never be
refreshed by a change that claims byte-identical output.

One declared exception: the four ``cost_model`` hashes were re-recorded
when the process-pool counters (``pool_creates``, ``pool_reuses``,
``map_chunks``, ``map_items``) left ``KERNEL_COUNTERS`` and with it the
cost model's ``seeded_from`` provenance.  ``PARENT_COST_MODEL`` keeps the
00aa2d5 literals and
``test_cost_model_differs_from_parent_by_the_pool_keys_only`` shows that
putting those four keys back reproduces them.

A second declared exception: the four ``events`` hashes — the *ordered*
stream — were re-recorded when single-slot devices began completing a
task in one heap event, which appends a task's three device spans at its
completion instead of one at the end of each phase.  ``EVENT_MULTISET``
was recorded at the parent of that change (9e15803) before its first
edit and passes on both sides: every event, to the last ts/dur bit, id,
parent and arg, is the one the parent emitted; only positions in the
list moved.  Nothing else in ``GOLDEN`` was touched.

Four cases: ``observed`` is the wall benchmark's ``serve_observed``
spec at 40 requests (every request crosses the whole stack), ``zipf``
has cache hits and coalesced followers (zero-cost ledger entries,
follower -> leader edges), ``burst`` runs under the batching config so
width > 1 groups reach the largest-remainder split, and ``alarms``
replays ``observed`` into an 8-point ring scraped at every batch with a
jumpy detector, so ring eviction, 60 anomaly events and their bus
instants are pinned too (the default detector never fires on these
traces).
"""

import hashlib
import json

import pytest

from repro.bench.workloads import paper_workload
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.obs import AnomalyDetector, EventTracer, TimeSeriesStore
from repro.physics.plan import PLAN_CACHE
from repro.quadrature.batch import KERNEL_COUNTERS
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
    # The plan-cache families and the cost model's seed provenance read
    # process-global ledgers: start both from zero.
    PLAN_CACHE.clear()
    KERNEL_COUNTERS.reset()
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


GOLDEN = {'observed': {'renders': ['64c40f8add64940ec4c668a0e8e436e57c4a5e72',
                          '3f5f04ce0ffb568dfae3a388f276d744220e229f',
                          'ec44a0b06ae71fb6a4983d8f9302df055367918c',
                          'a594378fbc9aeb5413e601e27a2130c6bcbf2fc3',
                          '8826fb2f3c9212d64c131e240b371418e68381ff',
                          'd1dbfc771e5c058cc0629200e468ebcd220f8245',
                          'e9255979d858347309654caf071154014b06cb1d',
                          '721e5bedb4ad70231163edc3b91306144125568c',
                          '16b0cd139f08c57db771c91c25df0b2a1fcecdac',
                          '5057d84a2010106cfdcd7f06c117cb3ea54e3f10',
                          '43bf6ded0b7b9ca2d7edd31ed7d6ccd25422c2cb',
                          '5fa46d892b005cd120ae87e8ee5badb4086ff606',
                          '862cbc968def8afc01150e07b621956406313ccf'],
              'final_render': 'b0c7360e75946fc3e986a80db00a69721858294c',
              'tsdb': 'c8a4c825f745a3bc6137a01f7ace51625de01ac8',
              'n_anomalies': 0,
              'anomalies': '97d170e1550eee4afc0af065b78cda302a97674c',
              'ledger': '737b6570a3c36d695ede0a87d438af74290e202f',
              'cost_model': 'dd7551ab000a111e3e21f8a166776d72df91e357',
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
                                             'i|plan|plan-hit': 79,
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
                            'n_events': 11158},
              'events': '84c885f3a3f369642898f73031b0274e9a07405b',
              'report': '370c06de3061aac430f37c31dfcc2b5f10c63746'},
 'zipf': {'renders': ['e9945233ba3598168d7330c721145b8aac426ad3',
                      'ab32700c8693c7d5e448c46b071509a6243fe7ad',
                      '6e4c7b55466c8fde9e2001f3732ce02c37e4a91f',
                      '59d6a3c641f640650ad54fd1a06ac418c7726fac'],
          'final_render': '092a9de7068cf8588456c6a17f9776e4d273a5e6',
          'tsdb': 'ce74254a936c0eaa3ad1821bfdebc265d326f232',
          'n_anomalies': 0,
          'anomalies': '97d170e1550eee4afc0af065b78cda302a97674c',
          'ledger': '6b640e6aeeb6f7597d4f9309481418741a439ba0',
          'cost_model': 'f75e9c5e602d6bee041e721214c8613b15a7d91b',
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
 'burst': {'renders': ['81e040d69eaf8348e03d93f04f3a8bac0ebb9462',
                       'dcfaa85383c1eabc06537974e7d9a047f7a3ec08',
                       'dd5081135b375d43471a093bd01b31b0f6257fd1'],
           'final_render': 'e3b631cded8878da904ab6edee1b965ea45875a4',
           'tsdb': 'e48635c802a08dae6a2b256b7ad9783ce7969d88',
           'n_anomalies': 0,
           'anomalies': '97d170e1550eee4afc0af065b78cda302a97674c',
           'ledger': '122a1bc89f05d1ffbd8d0ec9f50d342c15b18ce5',
           'cost_model': '66d458e9ac18592f3d1f2d0197aeec798c07439f',
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
 'alarms': {'renders': ['64c40f8add64940ec4c668a0e8e436e57c4a5e72',
                        'c207e6e3c5437a993474ca8ff1c1a09d7e26c8bf',
                        '3f5f04ce0ffb568dfae3a388f276d744220e229f',
                        '303b1feaba43febfc7481cdbaa3e28b031ae0eeb',
                        'ec44a0b06ae71fb6a4983d8f9302df055367918c',
                        '22899cb490f3e76e4fbfeee587284c776df1f11f',
                        'a594378fbc9aeb5413e601e27a2130c6bcbf2fc3',
                        '8826fb2f3c9212d64c131e240b371418e68381ff',
                        'd1dbfc771e5c058cc0629200e468ebcd220f8245',
                        'e9255979d858347309654caf071154014b06cb1d',
                        '721e5bedb4ad70231163edc3b91306144125568c',
                        '16b0cd139f08c57db771c91c25df0b2a1fcecdac',
                        '5057d84a2010106cfdcd7f06c117cb3ea54e3f10',
                        '43bf6ded0b7b9ca2d7edd31ed7d6ccd25422c2cb',
                        '5fa46d892b005cd120ae87e8ee5badb4086ff606',
                        '862cbc968def8afc01150e07b621956406313ccf'],
            'final_render': 'b0c7360e75946fc3e986a80db00a69721858294c',
            'tsdb': '1cc5ec018d2c11e0f9d858289cbae4258d38b060',
            'n_anomalies': 60,
            'anomalies': 'dd6a668a3545616ed6d047c586426f66f334c520',
            'ledger': '737b6570a3c36d695ede0a87d438af74290e202f',
            'cost_model': 'dd7551ab000a111e3e21f8a166776d72df91e357',
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
                                           'i|anomaly|anomaly': 60,
                                           'i|cache|cache.insert': 40,
                                           'i|cache|cache.miss': 40,
                                           'i|coalesce|coalesce.open': 40,
                                           'i|coalesce|coalesce.resolve': 40,
                                           'i|plan|plan-compile': 1,
                                           'i|plan|plan-hit': 79,
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
                          'n_events': 11218},
            'events': '691625b5b786137300b882157b916af230f404dc',
            'report': 'b8ae1685221139ee24ab8ca75b409c90fcc0b10f'}}


#: The ``cost_model`` hashes as recorded at 00aa2d5, when ``seeded_from``
#: still carried the four process-pool counters (all zero in these runs).
PARENT_COST_MODEL = {
    "alarms": "5bc7a9dcd72b5e51daa766230147b95932b5671d",
    "burst": "6ca03e4c8e0db7ae6071967bef2a16fdaf8919aa",
    "observed": "5bc7a9dcd72b5e51daa766230147b95932b5671d",
    "zipf": "a4bf813fc08667d1e85f7c9c0b5ddcdd503e431f",
}
_POOL_KEYS = ("pool_creates", "pool_reuses", "map_chunks", "map_items")


#: sha1 of the *sorted* event records per case, recorded at 9e15803 — the
#: parent of the PR that completes a task on a single-slot device in one
#: heap event and therefore appends its three spans at completion instead
#: of one per phase.  The multiset of events (every ts/dur bit, id, parent
#: and arg) is pinned here across that change; only the append order in
#: ``events`` moved.
EVENT_MULTISET = {
    "alarms": "fc6acca4dd652d0641a421e850034fc8401225bb",
    "burst": "75840bcaafdd6b64886f807104a07237e76d1139",
    "observed": "277a483c489ff1d1d75503acea218660f1b73e96",
    "zipf": "630945e0b8666e8cc69ecd97970d170d9d543875",
}


#: sha1 of the store a hybrid run's cadence scraper fills (224 scrapes of
#: the ``repro_node_*`` families over ``paper_workload(2)`` on 8 ranks /
#: 2 GPUs), recorded at the same parent commit.
GOLDEN_NODE_STORE = "be6c8b069e72960f9e83f12df42cc6558cb2ad08"


def test_node_scraper_store_matches_parent_commit():
    store = TimeSeriesStore()
    runner = HybridRunner(
        HybridConfig(n_workers=8, n_gpus=2), tsdb=store, scrape_cadence_s=0.5
    )
    runner.run(paper_workload(2))
    assert store.n_scrapes == 224
    assert _sha1(_canon(store.to_dict())) == GOLDEN_NODE_STORE


@pytest.mark.parametrize("case", sorted(CASES))
def test_fingerprint_matches_parent_commit(case):
    got = fingerprint(case)
    want = {**GOLDEN[case], "events_sorted": EVENT_MULTISET[case]}
    for part in want:
        assert got[part] == want[part], part
    assert set(got) == set(want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cost_model_differs_from_parent_by_the_pool_keys_only(case):
    spec, config, _, _ = CASES[case]
    PLAN_CACHE.clear()
    KERNEL_COUNTERS.reset()
    broker, _ = run_trace(generate_trace(spec), config, tracer=EventTracer())
    doc = broker.cost_model.to_dict()
    assert _sha1(_canon(doc)) == GOLDEN[case]["cost_model"]
    assert not set(doc["seeded_from"]) & set(_POOL_KEYS)
    doc["seeded_from"].update(dict.fromkeys(_POOL_KEYS, 0))
    assert _sha1(_canon(doc)) == PARENT_COST_MODEL[case]


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
