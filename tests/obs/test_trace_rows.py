"""Task-level tracing as rows: same events, same order, far fewer objects.

A traced task is recorded as ~3 compact rows (alloc, device completion,
task end) that ``EventTracer.events`` expands, on first read, into
exactly the ``TraceEvent`` list the eager path used to build.  Four
guards:

(a) cross-commit goldens — ordered and sorted event-stream hashes
    recorded at 92a6c94 (the parent of the row change) *before the first
    edit*, for the configurations ``test_obs_golden.py`` does not reach:
    a standalone ``HybridRunner`` under sync / predictive / async
    dispatch, on a one-event (``TESLA_C2075``) and a phased
    (``TESLA_K20``) device, with a queue short enough to force the CPU
    fallback, with and without a device failing mid-run;
(b) ``Attribution`` fed rows is ``Attribution`` fed the expanded events;
(c) the budget as literals: rows per task, and no task-level
    ``TraceEvent`` built before ``.events`` is first read;
(d) the view behaves as the list it replaces.
"""

import functools
import hashlib
import json

import pytest

from repro.atomic.database import AtomicConfig
from repro.cluster.simclock import SimClock
from repro.core.calibration import CostModel
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.gpusim.device import TESLA_C2075, TESLA_K20, SimulatedGPU
from repro.obs import EventTracer

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


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, default=lambda o: o.item())


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
    clock; with ``fail`` GPU 0 dies at ``FAIL_AT_S`` and strands its
    waiters, so the batch never joins — the trace up to the stall is the
    subject.  ``hook(clock)`` may schedule extra observers."""
    tracer = tracer if tracer is not None else EventTracer()
    clock = SimClock()
    if fail:
        original = SimulatedGPU.__init__

        def dies_mid_run(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if self.index == 0:
                clock.at(FAIL_AT_S, self.fail)

        monkeypatch.setattr(SimulatedGPU, "__init__", dies_mid_run)
    config = HybridConfig(
        n_workers=8, n_gpus=2, max_queue_length=3, device=DEVICES[device],
        cost=CostModel(point_overhead_s=0.0), stagger_s=0.01, **MODES[mode],
    )
    handle = HybridRunner(config, tracer=tracer).spawn_batch(_tasks(), clock)
    if hook is not None:
        hook(clock)
    clock.run()
    return tracer, handle.alive  # alive: ranks stranded on the dead device


def stream_hashes(tracer, stalled: bool) -> tuple[bool, int, str, str]:
    records = event_records(tracer)
    sha1 = lambda parts: hashlib.sha1("".join(parts).encode()).hexdigest()
    return stalled, len(records), sha1(records), sha1(sorted(records))


CASES = sorted(
    (mode, device, fail)
    for mode in MODES for device in DEVICES for fail in (False, True)
)

#: (mode, device, fail) -> (batch stalled, events, ordered sha1, sorted sha1)
#: at 92a6c94.
GOLDEN = {
    ("async", "c2075", False): (
        False, 1977,
        "43b9dd67fb4aea3001c27f9447b41aed6e4f6c18",
        "e945b2bd3f5b11a392a47e7827c64e989931d177",
    ),
    ("async", "c2075", True): (
        False, 1775,
        "8b3153a573a0b1d8114669b3f54adb3da81c532c",
        "ecf9c935e7d2d47f601c2b384c447d8c3a23a549",
    ),
    ("async", "k20", False): (
        False, 1997,
        "a50d93cb1b2c000e3fe8cdc83950c36245bc2d8e",
        "bdbc0d500e8b2a429bd8e63c1f4e13359a359073",
    ),
    ("async", "k20", True): (
        True, 1938,
        "31c4e9f62e98ff48d187bebb065ff806ca1db638",
        "b4d5e07d08f39c0288d8293c8404184e9f26f9e4",
    ),
    ("predictive", "c2075", False): (
        False, 2203,
        "3b0be9006c384eb59ad5c388a2cfd1b2709b8a20",
        "fc7f293d44175534e16e596a1abfdbf500421abe",
    ),
    ("predictive", "c2075", True): (
        True, 2150,
        "98676543ca21cab2aaf517a3e681faa47d77a065",
        "4484ca8ff38327c410bf416b5484bce8bf01d551",
    ),
    ("predictive", "k20", False): (
        False, 2016,
        "ab97b45ca84e8e0252f647179bc6958510dcb0c0",
        "2bf2f82cc0d33e3e126f8156579eecaed0d03f82",
    ),
    ("predictive", "k20", True): (
        True, 1899,
        "d4607b8d685e3165ad12d652bf2d90aeaa76a400",
        "797d7468de03983e7d74f5cc08e116dc27ff0ee0",
    ),
    ("sync", "c2075", False): (
        False, 2260,
        "256178a3a8a4424140f80ef5ad43af26d95198d2",
        "41bdc890dabbb31ca8f0b8767fa378fb7c5ffd03",
    ),
    ("sync", "c2075", True): (
        True, 1887,
        "b2b5d93b1699a43c5f91aecc10106d551abe6ba6",
        "85bc1ddb1db578c19d104fcf5f1bffe80f1bb2a7",
    ),
    ("sync", "k20", False): (
        False, 2169,
        "4d2b2082f3a0b37ea251c8c8f9a68b2a70243074",
        "97c9949fd017b980e326ca8bce71cc90cf2d715a",
    ),
    ("sync", "k20", True): (
        True, 2067,
        "f12dd9a857e8ed57545f969e2f10997cdf8df5aa",
        "2e682f8c9c081d34bc900d1824e8ae53190fe34d",
    ),
}


@pytest.mark.parametrize("mode,device,fail", CASES)
def test_standalone_stream_matches_parent_commit(mode, device, fail, monkeypatch):
    got = stream_hashes(*traced_run(mode, device, fail, monkeypatch))
    assert got == GOLDEN[(mode, device, fail)]


if __name__ == "__main__":  # record: PYTHONPATH=src:. python tests/obs/test_trace_rows.py
    import pprint

    mp = pytest.MonkeyPatch()
    out = {}
    for case in CASES:
        out[case] = stream_hashes(*traced_run(*case, mp))
        mp.undo()
    pprint.pprint(out, width=100)
