"""No result hangs on the simulator's tie-break.

``SimClock`` runs events of equal ``(time, scheduled_at)`` in push order,
and the order is one interleaving of many the modelled node allows: the
paper's ranks race on shared-memory atomics.  :class:`ShuffledClock`
draws every sequence number at random instead, so each tie goes either
way — ``Signal.fire``'s waiters too, since each wake-up is its own push.
A hot loop that bumps ``clock._seq`` itself reads the draw as well.

Under it, whatever the seed, rank loop, scheduler kind and card, a batch
must join, place every task once, give back every slot, audit clean, and
accumulate the committed order's spectra bit for bit.  Placement and
makespan may move (that is what a tie-break decides); answers may not.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import SimClock
from repro.core.calibration import CostModel
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.replay import replay_trace
from repro.obs import EventTracer
from tests.integration.test_failure_injection import CARDS, LOOPS, _paying_tasks

#: Scheduler kinds a direct-submit loop (sync or async) takes.
KINDS = ("shared", "client-server", "random", "weighted")


class ShuffledClock(SimClock):
    """A clock whose sequence numbers are seeded random draws: equal-key
    entries run in an order no push decided."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        super().__init__()

    @property
    def _seq(self) -> float:
        return self._rng.random()

    @_seq.setter
    def _seq(self, _value) -> None:
        pass


def _run(loop: str, kind: str, card: str, seed=None):
    """One traced contended batch (8 ranks, 2 GPUs, 3 slots a queue);
    ``seed`` shuffles its ties, ``None`` keeps the committed order."""
    import repro.core.scheduler as smod

    clock = SimClock() if seed is None else ShuffledClock(seed)
    tasks, tracer, segments = list(_paying_tasks()), EventTracer(), []

    class RecordedSegment(smod.SharedSegment):
        def __init__(self, n_devices):
            super().__init__(n_devices)
            segments.append(self)

    knobs = dict(LOOPS[loop])
    if loop != "predictive":
        knobs["scheduler_kind"] = kind
    config = HybridConfig(
        n_workers=8, n_gpus=2, max_queue_length=3, device=CARDS[card],
        cost=CostModel(point_overhead_s=0.0), stagger_s=0.01, **knobs,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smod, "SharedSegment", RecordedSegment)
        handle = HybridRunner(config, tracer=tracer).spawn_batch(tasks, clock)
        clock.run()
    return handle, tracer, segments


@functools.lru_cache(maxsize=None)
def _committed_spectra(loop: str, kind: str, card: str) -> dict:
    handle, _, _ = _run(loop, kind, card)
    return handle.result.spectra


class TestTieBreak:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loop=st.sampled_from(sorted(LOOPS)),
        kind=st.sampled_from(KINDS),
        card=st.sampled_from(sorted(CARDS)),
    )
    @example(seed=1, loop="async1", kind="shared", card="c2075")
    @example(seed=2, loop="async2", kind="client-server", card="k20")
    @example(seed=3, loop="async3", kind="random", card="c2075")
    @example(seed=4, loop="predictive", kind="shared", card="k20")
    def test_any_tie_order_gives_the_committed_answers(self, seed, loop, kind, card):
        n = len(_paying_tasks())
        handle, tracer, segments = _run(loop, kind, card, seed)
        assert not handle.alive, "the batch stalled"
        result = handle.result
        assert int(result.metrics.gpu_tasks.sum()) + result.metrics.cpu_tasks == n
        (segment,) = segments
        assert segment.total_load() == 0 and segment.total_backlog() == 0
        report = replay_trace(
            tracer, n_expected_tasks=n, async_depth=LOOPS[loop].get("async_depth", 0)
        )
        assert report.ok, report.violations
        committed = _committed_spectra(loop, kind, card)
        assert result.spectra.keys() == committed.keys()
        for point, spectrum in committed.items():
            assert np.array_equal(result.spectra[point], spectrum), point

    def test_the_shuffle_reorders_ties(self):
        """The clock under test does move placement (predictive steals
        follow who claims a pending entry first): otherwise the property
        above would hold of any loop."""
        committed = replay_trace(_run("predictive", "shared", "c2075")[1]).tasks
        shuffled = replay_trace(_run("predictive", "shared", "c2075", seed=5)[1]).tasks
        assert sorted(committed) != sorted(shuffled)
