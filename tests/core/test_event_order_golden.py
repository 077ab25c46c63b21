"""Cross-commit guard on the simulated node's event order.

The same-commit determinism tests prove that two runs of *this* checkout
agree; they cannot see a host-side change that reorders events
consistently.  The literals below were recorded at commit e66f984 (the
parent of the PR that stripped the per-task host overhead) and must
never be refreshed by a change that claims to be order-preserving: any
added, removed or reordered heap event moves a makespan bit, a residency
bit or the task stream.  The task stream is read from the tracer's
``END`` rows through :func:`~repro.core.replay.replay_trace`, one
``(rank, task id, placement, device, start, end)`` a task in row order;
the tuples are those the ledger's ``TaskEvent`` timeline held when the
literals were recorded.  No async run had such a timeline, so the two
``async2`` streams were recorded once, from rows, when rows gained a
task id; the other six fields of those fingerprints are the originals.

Two nodes: ``paper2`` is ``paper_workload(2)`` on the default node (two
busy ranks, three GPUs — no contention, so it pins the plain
submit/resume path), ``contended`` is eight ranks on two GPUs, where
queue waits, 268 steals and the CPU fallback actually happen.
"""

import functools
import hashlib

import pytest

from repro.bench.workloads import paper_workload
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.replay import replay_trace
from repro.gpusim.device import TESLA_K20
from repro.obs import EventTracer

NODES = {
    "paper2": (2, dict()),
    "contended": (8, dict(n_workers=8, n_gpus=2)),
}

CASES = {
    "shared": dict(),
    "predictive": dict(scheduler_kind="predictive"),
    "async2": dict(async_depth=2),
    "client_server": dict(scheduler_kind="client-server"),
    "fallback": dict(max_queue_length=2),
    "k20": dict(device=TESLA_K20),
}


def fingerprint(result, tracer) -> tuple:
    """(makespan hex, gpu_tasks, cpu_tasks, residency sha1, steals,
    summed waits hex, sha1 of the task stream)."""
    m = result.metrics
    stream = hashlib.sha1()
    for track, task_id, device, _enqueue, start, end in replay_trace(tracer).tasks:
        rank = int(tracer.tracks[track].thread.removeprefix("rank"))
        placement = "cpu" if device < 0 else "gpu"
        stream.update(
            repr((rank, task_id, placement, device, start.hex(), end.hex())).encode()
        )
    return (
        result.makespan_s.hex(),
        m.gpu_tasks.tolist(),
        m.cpu_tasks,
        hashlib.sha1(m.load_residency.tobytes()).hexdigest(),
        m.total_steals,
        float(sum(m.task_waits)).hex(),
        stream.hexdigest(),
    )


def run_case(node: str, case: str):
    n_points, node_knobs = NODES[node]
    config = HybridConfig(**{**node_knobs, **CASES[case]})
    tracer = EventTracer()
    return HybridRunner(config, tracer=tracer).run(_tasks(n_points)), tracer


@functools.lru_cache(maxsize=None)
def _tasks(n_points: int):
    return paper_workload(n_points)


GOLDEN = {('paper2', 'shared'): ('0x1.bdb59ba97f8e7p+6',
                        [331, 331, 330],
                        0,
                        'badd9845b83ceec513134dafb1f8138f34dadac0',
                        0,
                        '0x1.3af8400000000p-40',
                        '4c76307751c94c55f56ae73445ad8cc226d6adc5'),
 ('paper2', 'predictive'): ('0x1.bdb59ba97f8e7p+6',
                            [331, 331, 330],
                            0,
                            'badd9845b83ceec513134dafb1f8138f34dadac0',
                            0,
                            '0x0.0p+0',
                            '73f714afd25e7f228c57d58027545592e2fcd10c'),
 ('paper2', 'async2'): ('0x1.a0380fbad4857p+6',
                        [331, 331, 330],
                        0,
                        '6e71c9cc1697a9a3c367c63db870ad8e23c4e707',
                        0,
                        '0x0.0p+0',
                        'a3ed09855ea1ed1b4cfacf5d1be952d55b83874d'),
 ('paper2', 'client_server'): ('0x1.bfb183160ad90p+6',
                               [331, 331, 330],
                               0,
                               '72e8382e7c698af538c656c9085792179df2b982',
                               0,
                               '0x1.3ac8c00000000p-40',
                               '1b13cf52cdc7d6e3ab3e6fe48cd7dfa058de61b7'),
 ('paper2', 'fallback'): ('0x1.bdb59ba97f8e7p+6',
                          [331, 331, 330],
                          0,
                          'c757c5924898a32263119b35b6afc7718843feb9',
                          0,
                          '0x1.3af8400000000p-40',
                          '4c76307751c94c55f56ae73445ad8cc226d6adc5'),
 ('paper2', 'k20'): ('0x1.acc90a1654a2bp+6',
                     [331, 331, 330],
                     0,
                     '943945da2ce32040f43c66afe7e2b2e6a50ef68c',
                     0,
                     '0x1.dcfb900000000p-39',
                     '61da9f613ffda0b379e403a5a10b7ab9195dc1b7'),
 ('contended', 'shared'): ('0x1.c2b82909a27c0p+6',
                           [1984, 1984],
                           0,
                           'e4a16c76b6aa761c56cc16240b3db3eb2f10fe1e',
                           0,
                           '0x1.877c0e3260c33p-1',
                           '764be10b2f0bb8bb55ab2e8401fb1d767319e141'),
 ('contended', 'predictive'): ('0x1.c29454f59e251p+6',
                               [1986, 1982],
                               0,
                               '75411caf2d01cc8c5d1e9dae9d1fb327cc667a28',
                               268,
                               '0x1.c3573fafb8070p-2',
                               '6e52badb9e62eb6c4af46421454347180e15dec2'),
 ('contended', 'async2'): ('0x1.a504dc87a1527p+6',
                           [1984, 1984],
                           0,
                           '335a4b6968830b73f886212b7769936d490a49af',
                           0,
                           '0x0.0p+0',
                           'fb4094ba9321a4256b7c5d80c685b02eefbb3a37'),
 ('contended', 'client_server'): ('0x1.c49c8f0fdf59cp+6',
                                  [1984, 1984],
                                  0,
                                  'f699915c5d570fe81317084e2953a0d74894952a',
                                  0,
                                  '0x1.4bc4888dfc411p-1',
                                  'b648a43ebc520aebfc1d462232ea4d38f27b804e'),
 ('contended', 'fallback'): ('0x1.f2a0266e143bep+6',
                             [1977, 1977],
                             14,
                             '03a1d87f3ed6a3a298c585a5b1e96917b95fdd04',
                             0,
                             '0x1.27fe84afd83c2p+0',
                             'e504d309ba2ace8ede3164088a8e5e5011a2e190'),
 ('contended', 'k20'): ('0x1.b1b20ff99630ap+6',
                        [1984, 1984],
                        0,
                        'bd861ee6d876bf0ae0531f547f15fa38ea5d8456',
                        0,
                        '0x1.6b895010bc4aap-3',
                        '1e88c5c895167a7c35d73cffe074cf1c6b35fdf2')}


@pytest.mark.parametrize("node,case", sorted(GOLDEN))
def test_fingerprint_matches_parent_commit(node, case):
    assert fingerprint(*run_case(node, case)) == GOLDEN[(node, case)]


def test_every_case_is_pinned():
    assert set(GOLDEN) == {(n, c) for n in NODES for c in CASES}


def test_contended_node_exercises_the_branches_it_is_named_for():
    """The guard is only as good as its coverage: steals, queue waits and
    the CPU fallback must all occur somewhere in the pinned set."""
    assert GOLDEN[("contended", "predictive")][4] > 0
    assert GOLDEN[("contended", "fallback")][2] > 0
    assert float.fromhex(GOLDEN[("contended", "shared")][5]) > 0.0
