"""Every layer's cost as an exact count: Python calls a pass makes, by package.

A wall-clock pair names a regression only after ten runs a seed, and
not the layer it went to.  A call count is exact: the same work makes the
same calls on any host.  Each case below runs one pass of a
``benchmarks/wall`` workload's shape at a small fixed scale under
``sys.setprofile`` and pins, per ``repro`` package, the Python-level
calls it made (``"call"`` events: a function entry or a generator's
resumption), plus the heap events of each simulated clock it ran.  Calls
per op are a literal over the case's ``ops`` (a spectrum, a simulated
task, a request — the workload's own unit).

What is not counted, so that no literal depends on the host or the
session:

- comprehension frames: CPython 3.12 inlines list, dict and set
  comprehensions (PEP 709), so 3.10 and 3.12 would disagree on them;
- whatever ran before: the six passes run in a fresh interpreter of
  their own, in a fixed order (a process-wide cache answers a lookup
  with an ``__eq__`` call or none, by which equal key it stored first);
- the cyclic collector's work (see :func:`count_calls`);
- a first pass: each case runs once unmeasured, so the process-wide
  caches (plans, family plans, payload memos) are warm;
- the rank pool's forks: ``usable_cpus`` reads 1, so every plan call is
  one slice, computed inline, on a host of any size.

A change that adds or removes a call a task or a request moves its
package's literal by the op count.  Re-record a literal only in a
declared commit, beside the wall pairs that price the change.  The
literals were taken on CPython 3.11; CI's 3.10 and 3.12 legs run the
same assertions.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.bench.workloads import paper_workload, small_real_database, small_real_grid
from repro.cluster.simclock import SimClock
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.physics.apec import GridPoint, SerialAPEC
from repro.physics.plan import PLAN_CACHE
from repro.service.broker import ServiceConfig, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace

#: Code names of the frames 3.12 no longer makes (PEP 709).
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def count_calls(op):
    """``(calls by repro package, op())``: the package of a frame is the
    second part of its module's ``__name__``.  The cyclic collector is
    emptied first and off during ``op``: closing a parked generator of an
    earlier run (a broker's idle worker) resumes it, and when that
    happens depends on the process's allocation history."""
    counts: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name not in COMPREHENSIONS:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                counts[module.split(".", 2)[1]] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        out = op()
    finally:
        sys.setprofile(None)
        gc.enable()
    return dict(counts), out


# ----------------------------------------------------------------------
# One pass of each wall workload's shape, small, after the workload's
# set-up (built once, outside the count).  Each returns the heap events
# of every clock it ran, in order (none for the sweeps).
# ----------------------------------------------------------------------
N_BINS = 60


@functools.lru_cache(maxsize=None)
def _setup(workload: str):
    if workload == "hybrid_paper":
        return paper_workload(1)
    db, grid = small_real_database(), small_real_grid(N_BINS)
    if workload == "sweep_dense":
        return SerialAPEC(db, grid, method="simpson-batch", components=("rrc",))
    return PLAN_CACHE.get(db, grid, method="simpson", tail_tol=1.0e-9)


def sweep_dense() -> list[int]:
    _setup("sweep_dense").compute(GridPoint(1.0e7, 1.0))
    return []


def sweep_pruned_many() -> list[int]:
    _setup("sweep_pruned_many").execute_many([GridPoint(t, 1.0) for t in (3.0e6, 1.0e7)])
    return []


def hybrid_paper() -> list[int]:
    tasks = _setup("hybrid_paper")
    events = []
    for kind in ("shared", "predictive"):
        clock = SimClock()
        config = HybridConfig(
            scheduler_kind=kind, n_workers=24, n_gpus=3, max_queue_length=12
        )
        HybridRunner(config).spawn_batch(tasks, clock)
        clock.run()
        events.append(clock._seq)
    return events


def _cold_spec(n_requests: int) -> TrafficSpec:
    return TrafficSpec(
        n_requests=n_requests, pattern="uniform", n_distinct=30000,
        mean_interarrival_s=0.4, tail_tol=1.0e-9, seed=7,
    )


def _serve(plays, **kwargs) -> list[int]:
    events = []
    for spec, config in plays:
        broker, tickets = run_trace(generate_trace(spec), config, **kwargs)
        assert all(t is not None and t.done for t in tickets)
        events.append(broker.clock._seq)
    return events


PLAIN = ServiceConfig(n_service_workers=2)


def serve_cold() -> list[int]:
    return _serve([(_cold_spec(20), PLAIN)])


def serve_reuse() -> list[int]:
    batching = ServiceConfig(
        n_service_workers=2, queue_capacity=96, batch_max=32,
        batch_width_max=32, batch_window_s=0.05,
    )
    return _serve([
        (TrafficSpec(n_requests=100, pattern="zipf", n_distinct=32, seed=7), PLAIN),
        (TrafficSpec(n_requests=50, pattern="walk", accuracy=1.0e-3, seed=7), PLAIN),
        (TrafficSpec(
            n_requests=32, pattern="uniform", n_distinct=512, burst=16, n_bins=128,
            tolerance=1.0e-9, seed=7,
        ), batching),
    ])


def serve_observed() -> list[int]:
    from repro.obs import AnomalyDetector, EventTracer, TimeSeriesStore

    return _serve(
        [(_cold_spec(10), PLAIN)],
        tracer=EventTracer(), tsdb=TimeSeriesStore(cadence_s=0.5),
        anomaly=AnomalyDetector(),
    )


#: workload -> (op, ops a pass, heap events of each clock, calls by package)
COUNTS = {
    "sweep_dense": (sweep_dense, 1, [], {
        "atomic": 317, "constants": 1, "parallel": 3, "physics": 361, "quadrature": 2,
    }),
    "sweep_pruned_many": (sweep_pruned_many, 2, [], {
        "atomic": 630, "constants": 2, "parallel": 3, "physics": 671, "quadrature": 4,
    }),
    "hybrid_paper": (hybrid_paper, 992, [2057, 4041], {
        "cluster": 2394, "core": 13222, "gpusim": 4972, "obs": 1988,
    }),
    "serve_cold": (serve_cold, 20, [3032], {
        "atomic": 269, "cluster": 1957, "core": 7535, "gpusim": 3618, "obs": 48,
        "physics": 141, "service": 1368,
    }),
    "serve_reuse": (serve_reuse, 182, [3673, 53, 325], {
        "approx": 1715, "atomic": 596, "cluster": 2946, "core": 9740, "gpusim": 4700,
        "obs": 108, "physics": 33, "service": 6792,
    }),
    "serve_observed": (serve_observed, 10, [1525], {
        "approx": 12, "atomic": 189, "cluster": 1013, "core": 4152, "gpusim": 1810,
        "obs": 5664, "physics": 83, "service": 835,
    }),
}


def measure() -> dict:
    """``{workload: [heap events, calls by package]}`` of each measured
    pass, in this process, warm pass first."""
    import repro.parallel.ranks as ranks

    ranks.usable_cpus = lambda: 1
    out = {}
    for workload, (op, *_) in COUNTS.items():
        op()
        calls, events = count_calls(op)
        out[workload] = [events, calls]
    return out


@pytest.fixture(scope="module")
def measured() -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, check=True,
        env=env, timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_calls_and_events_per_pass_are_exactly(workload, measured):
    _, n_ops, events, calls = COUNTS[workload]
    got_events, got_calls = measured[workload]
    per_op = {pkg: round(n / n_ops, 2) for pkg, n in sorted(got_calls.items())}
    assert got_events == events
    assert got_calls == calls, f"calls per op now {per_op}"


if __name__ == "__main__":
    print(json.dumps(measure()))
