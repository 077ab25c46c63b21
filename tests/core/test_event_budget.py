"""The event budget as a count: heap events one batch pushes.

``test_event_order_golden`` pins *where* events run; this pins *how
many* there are — the quantity the host-side cost of a simulated task is
proportional to.  Counts repeat exactly, so they are literals; a change
that adds or removes an event per task moves them by thousands.

Per GPU task the budget is: host prep, submit overhead and one device
event (single-slot devices complete a task in one; multi-slot devices
keep three) — 3 — plus, under predictive dispatch, the idle slots each
enqueue wakes.  The waiter's resume at completion (the rank's, and under
predictive dispatch the slot's and then the rank's) is handed over in
place unless another event is due in its instant, when it is pushed
(``cluster/simclock.py``).  On :class:`HeapClock`, which pushes every
wake, a batch pushes what it pushed before the hand-off existed: 4 a
shared task, 6.497 a predictive one on ``paper24``.
"""

import functools

import pytest

from repro.bench.workloads import paper_workload
from repro.cluster.simclock import SimClock
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.gpusim.device import TESLA_K20
from tests.core.test_hand_off import HeapClock

#: node -> (grid points, node knobs); ``paper24`` is the wall benchmark's
#: ``hybrid_paper`` pass, the other two are the event-order golden's.
NODES = {
    "paper2": (2, dict()),
    "contended": (8, dict(n_workers=8, n_gpus=2)),
    "paper24": (24, dict()),
}

EVENTS = {
    ("paper2", "shared"): 3049,
    ("paper2", "predictive"): 5844,
    ("contended", "shared"): 11959,
    ("contended", "predictive"): 18088,
    ("paper24", "shared"): 35905,
    ("paper24", "predictive"): 54025,
}

#: The same batches with every wake pushed: the counts of the event model
#: before the hand-off, which it must still make on the reference clock.
EVERY_WAKE_PUSHED = {
    ("paper2", "shared"): 4041,
    ("paper2", "predictive"): 7828,
    ("contended", "shared"): 15897,
    ("contended", "predictive"): 25879,
    ("paper24", "shared"): 47689,
    ("paper24", "predictive"): 77339,
}


@functools.lru_cache(maxsize=None)
def _tasks(n_points: int):
    return paper_workload(n_points)


def events_pushed(node: str, clock_type=SimClock, **knobs) -> tuple[int, int]:
    """(heap events, tasks) of one batch on its own clock."""
    n_points, node_knobs = NODES[node]
    tasks = _tasks(n_points)
    clock = clock_type()
    handle = HybridRunner(HybridConfig(**node_knobs, **knobs)).spawn_batch(tasks, clock)
    clock.run()
    assert handle.result.metrics.total_tasks == len(tasks)
    return clock._seq, len(tasks)


@pytest.mark.parametrize("node,kind", sorted(EVENTS))
def test_events_per_batch_are_exactly(node, kind):
    events, _ = events_pushed(node, scheduler_kind=kind)
    assert events == EVENTS[(node, kind)]
    assert events_pushed(node, scheduler_kind=kind)[0] == events  # repeats exactly


@pytest.mark.parametrize("node,kind", sorted(EVERY_WAKE_PUSHED))
def test_with_every_wake_pushed_the_event_model_is_unchanged(node, kind):
    events, _ = events_pushed(node, HeapClock, scheduler_kind=kind)
    assert events == EVERY_WAKE_PUSHED[(node, kind)]


@pytest.mark.parametrize(
    "kind,ceiling", [("shared", 3.02), ("predictive", 4.54)], ids=["shared", "predictive"]
)
def test_hybrid_paper_budget_per_task(kind, ceiling):
    n_tasks = len(_tasks(24))
    assert EVENTS[("paper24", kind)] / n_tasks <= ceiling


def test_multi_slot_devices_keep_three_events_per_task():
    """Two events a task more than a single-slot card with every wake
    pushed.  With the hand-off, 78 more completions on the multi-slot card
    than on the single-slot one find another event due in their instant
    and push their wake (108 against 30 of 3 968)."""
    fermi, n_tasks = events_pushed("contended", HeapClock)
    kepler, _ = events_pushed("contended", HeapClock, device=TESLA_K20)
    assert kepler - fermi == 2 * n_tasks
    fermi, _ = events_pushed("contended")
    kepler, _ = events_pushed("contended", device=TESLA_K20)
    assert (fermi, kepler) == (11959, 19973) and kepler - fermi == 2 * n_tasks + 78
