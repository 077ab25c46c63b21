"""The in-place hand-off keeps the order.

A device completion (and a predictive dispatch slot) wakes its one
callable waiter in place when no other event is due at or before the
instant, instead of pushing a +0 wake that would be the next entry
popped anyway (``cluster/simclock.py``'s module docstring).
:class:`HeapClock` refuses the hand-off, so every wake goes through the
heap as it did before the hand-off existed; it is the reference.

Whatever the rank loop, scheduler kind, card and failure, a batch on the
real clock and on the reference must agree bit for bit: makespan,
residency, the task stream, every trace row and every spectrum.  Under
item 17's shuffled clock, where each tie goes either way, the hand-off
is one more tie order, so there the two must give the committed answers.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import SimClock
from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.replay import replay_trace
from repro.gpusim.device import TESLA_C2075, TESLA_K20, SimulatedGPU
from repro.obs import EventTracer
from tests.core.test_tie_break_properties import KINDS, ShuffledClock
from tests.integration.test_failure_injection import LOOPS, _paying_tasks
from tests.obs.test_trace_rows import event_records


class HeapClock(SimClock):
    """The reference: every wake is pushed and popped."""

    hands_off = False


class ShuffledHeapClock(ShuffledClock):
    hands_off = False


#: The two paper cards, and a two-slot card whose ingress is zero, so a
#: job queued behind a full device has its first event at the very
#: instant the completion that frees its slot runs.
CARDS = {
    "c2075": TESLA_C2075,
    "k20": TESLA_K20,
    "zero-ingress": replace(
        TESLA_K20, name="zero-ingress", max_concurrent_kernels=2, pcie_latency_s=0.0,
        kernel_launch_s=0.0, pcie_bandwidth_gbs=float("inf"),
    ),
}


def _run(clock: SimClock, loop: str, kind: str, card: str, fail=None):
    """One traced contended batch (8 ranks, 2 GPUs, 3 slots a queue) on
    ``clock``; ``fail=(gpu, t)`` kills that GPU at virtual second t."""
    tasks, tracer = list(_paying_tasks()), EventTracer()
    knobs = dict(LOOPS[loop])
    if loop != "predictive":
        knobs["scheduler_kind"] = kind
    config = HybridConfig(
        n_workers=8, n_gpus=2, max_queue_length=3, device=CARDS[card],
        cost=CostModel(point_overhead_s=0.0), stagger_s=0.01, **knobs,
    )
    original_init = SimulatedGPU.__init__

    def dies_at(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if fail is not None and self.index == fail[0]:
            clock.call_at(fail[1], SimulatedGPU.fail, self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulatedGPU, "__init__", dies_at)
        handle = HybridRunner(config, tracer=tracer).spawn_batch(tasks, clock)
        clock.run()
    assert not handle.alive, "the batch stalled"
    return handle.result, tracer


def fingerprint(result, tracer) -> tuple:
    """(makespan hex, residency sha1, task stream sha1, trace rows sha1)."""
    sha1 = lambda parts: hashlib.sha1(repr(parts).encode()).hexdigest()
    stream = [
        (track, task_id, device, start.hex(), end.hex())
        for track, task_id, device, _enqueue, start, end in replay_trace(tracer).tasks
    ]
    return (
        result.makespan_s.hex(),
        hashlib.sha1(result.metrics.load_residency.tobytes()).hexdigest(),
        sha1(stream),
        sha1(event_records(tracer)),
    )


def assert_same_spectra(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for point, spectrum in want.items():
        assert np.array_equal(got[point], spectrum), point


FAILS = st.one_of(
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=1), st.floats(min_value=0.0, max_value=30.0)),
)


class TestHandOff:
    @settings(max_examples=100, deadline=None)
    @given(
        loop=st.sampled_from(sorted(LOOPS)),
        kind=st.sampled_from(KINDS),
        card=st.sampled_from(sorted(CARDS)),
        fail=FAILS,
    )
    @example(loop="sync", kind="shared", card="zero-ingress", fail=None)
    @example(loop="predictive", kind="shared", card="zero-ingress", fail=(0, 2.0))
    @example(loop="async2", kind="client-server", card="c2075", fail=(1, 0.5))
    @example(loop="sync", kind="weighted", card="k20", fail=(0, 0.0))
    def test_in_place_equals_every_wake_pushed(self, loop, kind, card, fail):
        clock, reference = SimClock(), HeapClock()
        got, got_tracer = _run(clock, loop, kind, card, fail)
        want, want_tracer = _run(reference, loop, kind, card, fail)
        assert fingerprint(got, got_tracer) == fingerprint(want, want_tracer)
        assert_same_spectra(got.spectra, want.spectra)
        assert clock._seq <= reference._seq  # the hand-off only saves pushes

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_the_hand_off_happens(self, loop):
        """Otherwise the property above would hold of any clock."""
        clock, reference = SimClock(), HeapClock()
        _run(clock, loop, "shared", "c2075")
        _run(reference, loop, "shared", "c2075")
        assert clock._seq < reference._seq

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loop=st.sampled_from(sorted(LOOPS)),
        kind=st.sampled_from(KINDS),
        card=st.sampled_from(sorted(CARDS)),
    )
    @example(seed=4, loop="predictive", kind="shared", card="zero-ingress")
    def test_under_shuffled_ties_both_give_the_committed_answers(
        self, seed, loop, kind, card
    ):
        committed = _committed_spectra(loop, kind, card)
        n = len(_paying_tasks())
        for clock in (ShuffledClock(seed), ShuffledHeapClock(seed)):
            result, tracer = _run(clock, loop, kind, card)
            assert int(result.metrics.gpu_tasks.sum()) + result.metrics.cpu_tasks == n
            report = replay_trace(
                tracer, n_expected_tasks=n, async_depth=LOOPS[loop].get("async_depth", 0)
            )
            assert report.ok, report.violations
            assert_same_spectra(result.spectra, committed)


@functools.lru_cache(maxsize=None)
def _committed_spectra(loop: str, kind: str, card: str) -> dict:
    return _run(SimClock(), loop, kind, card)[0].spectra
