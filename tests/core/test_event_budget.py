"""The event budget as a count: heap events one batch pushes.

``test_event_order_golden`` pins *where* events run; this pins *how
many* there are — the quantity the host-side cost of a simulated task is
proportional to.  Counts repeat exactly, so they are literals; a change
that adds or removes an event per task moves them by thousands.

Per GPU task the budget is: host prep, submit overhead, one device
event (single-slot devices complete a task in one; multi-slot devices
keep three), the rank's resume — 4 — plus, under predictive dispatch,
the slot's resume on the device's signal and the idle slots each
enqueue wakes.
"""

import functools

import pytest

from repro.bench.workloads import paper_workload
from repro.cluster.simclock import SimClock
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.gpusim.device import TESLA_K20

#: node -> (grid points, node knobs); ``paper24`` is the wall benchmark's
#: ``hybrid_paper`` pass, the other two are the event-order golden's.
NODES = {
    "paper2": (2, dict()),
    "contended": (8, dict(n_workers=8, n_gpus=2)),
    "paper24": (24, dict()),
}

EVENTS = {
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


def events_pushed(node: str, **knobs) -> tuple[int, int]:
    """(heap events, tasks) of one batch on its own clock."""
    n_points, node_knobs = NODES[node]
    tasks = _tasks(n_points)
    clock = SimClock()
    handle = HybridRunner(HybridConfig(**node_knobs, **knobs)).spawn_batch(tasks, clock)
    clock.run()
    assert handle.result.metrics.total_tasks == len(tasks)
    return clock._seq, len(tasks)


@pytest.mark.parametrize("node,kind", sorted(EVENTS))
def test_events_per_batch_are_exactly(node, kind):
    events, _ = events_pushed(node, scheduler_kind=kind)
    assert events == EVENTS[(node, kind)]
    assert events_pushed(node, scheduler_kind=kind)[0] == events  # repeats exactly


@pytest.mark.parametrize("kind,ceiling", [("shared", 4.01), ("predictive", 6.50)])
def test_hybrid_paper_budget_per_task(kind, ceiling):
    n_tasks = len(_tasks(24))
    assert EVENTS[("paper24", kind)] / n_tasks <= ceiling


def test_multi_slot_devices_keep_three_events_per_task():
    fermi, n_tasks = events_pushed("contended")
    kepler, _ = events_pushed("contended", device=TESLA_K20)
    assert kepler - fermi == 2 * n_tasks
