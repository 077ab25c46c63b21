"""Cross-commit guard on what the lattice tier serves.

``GOLDEN`` was recorded at commit 90130ce — the parent of the PR that
keeps each interval's Hermite table instead of re-deriving it per hit —
*before the first edit*, and must never be refreshed by a change that
claims the same spectra.  Per seeded ``walk`` trace through
``run_trace``: one sha1 over the bytes of every lattice-served ticket
(trace order), the store's ``LatticeStats.as_dict()`` and the resident
lattice's ``node_evals``, and one sha1 over the traced run's ``approx``
instants (name, timestamp, args).  The cases cover both methods, with
and without mid-trace refinement (``accuracy`` 1e-3 never refines the
default cubic lattice and bisects the linear one 20 times; the tighter
budgets refine mid-trace, and the linear one leaves two fallbacks).  ``lattice.build``'s ``nbytes`` arg is the one field left
out of the instant hash: it reports the lattice's budgeted size, which
that PR re-defines to count the tables.

``serve_reuse`` is a cross-check at full scale: the sha1 over every
ticket's ``result`` of the wall benchmark's three plans, in order.

The last case is a direct :class:`SpectrumLattice` over a synthetic
exact function whose high bins are *exactly* zero below a temperature
that moves with the bin — stencils that straddle the edge take the
raw-flux branch no service trace reaches.
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.approx import INTERP_METHODS, LatticeSpec, SpectrumLattice
from repro.obs import EventTracer
from repro.service import ServiceConfig, TrafficSpec, generate_trace, run_trace

WALL = Path(__file__).resolve().parents[2] / "benchmarks" / "wall"

#: (lattice method, accuracy, seed) of each walk trace.
WALKS = {
    "cubic": ("cubic", 1.0e-3, 7),
    "linear": ("linear", 1.0e-3, 7),
    "cubic-refined": ("cubic", 1.0e-5, 11),
    "linear-refined": ("linear", 1.0e-4, 11),
}
N_WALK = 200

def _stats(requests, hits, fallbacks, refinements, node_evals) -> dict:
    return {
        "requests": requests, "hits": hits, "misses": 0, "fallbacks": fallbacks,
        "refinements": refinements, "builds": 1, "invalidations": 0,
        "evictions": 0, "node_evals": node_evals, "hit_ratio": hits / requests,
    }


GOLDEN = {
    "cubic": {
        "spectra": "4b39c84b7937211c618caa44e21d68d50b54387a",
        "stats": _stats(200, 200, 0, 0, 65),
        "node_evals": 65,
        "instants": (201, "57788128172d069a48578e5c9cfd89888ce2248e"),
    },
    "linear": {
        "spectra": "c2b29b5f4393d4a057b0485476469279e5014cb5",
        "stats": _stats(200, 200, 0, 20, 105),
        "node_evals": 105,
        "instants": (221, "33324b7386fb7b8a4c23b7f0103cf6aeb07af26c"),
    },
    "cubic-refined": {
        "spectra": "732d9fb3c05e1a221d24b1ee6a60d6e9b1d85cbe",
        "stats": _stats(200, 200, 0, 18, 101),
        "node_evals": 101,
        "instants": (219, "ffc120b2e88f30f5af1f8a99ffa79d1c757990ae"),
    },
    "linear-refined": {
        "spectra": "f454599ac580de4d987f8d6ec9917e32a56463c4",
        "stats": _stats(200, 198, 2, 31, 127),
        "node_evals": 127,
        "instants": (232, "0dcb14dbea5f9660e64dd43b084b45376b1789b1"),
    },
}

SERVE_REUSE = {
    7: "5c8e3996dbb524c78a81f9c13b6e8c1759210b14",
    11: "9de3424b3b3859bfd9c1670db8a9533c4c423819",
}

GOLDEN_DIRECT = {
    "cubic": {
        "spectra": "f06634a65cadf7611dbc469d41bea444d77a8c0e",
        "bounds": "95ca05a5a8318185bb92cdf775d0b7b71ca92bf6",
        "certified": "2e464cf585f14f762c555b44eb6bababdfb6a2c3",
        "node_evals": 27,
        "nodes": "10d1fc7b60842e492c1f3dbf023d8064782f5aa7",
    },
    "linear": {
        "spectra": "2ecbfae3e6ca592d800b65580470d565606ad300",
        "bounds": "cc6e4f912ef533f557867ab987c9abc43c16766a",
        "certified": "1d57cdce530ae448eeab70688b2ea58647c5b2be",
        "node_evals": 27,
        "nodes": "10d1fc7b60842e492c1f3dbf023d8064782f5aa7",
    },
}


def _sha1(chunks) -> str:
    h = hashlib.sha1()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _walk(case: str) -> dict:
    method, accuracy, seed = WALKS[case]
    trace = generate_trace(
        TrafficSpec(n_requests=N_WALK, pattern="walk", accuracy=accuracy, seed=seed)
    )
    config = ServiceConfig(
        n_service_workers=2, lattice=replace(ServiceConfig().lattice, method=method)
    )
    tracer = EventTracer()
    broker, tickets = run_trace(trace, config, tracer=tracer)
    _, plain = run_trace(trace, config)
    assert all(
        a.lattice == b.lattice and np.array_equal(a.result, b.result)
        for a, b in zip(tickets, plain)
    )
    store = broker._lattice
    (lat,) = store._lattices.values()
    instants = [
        repr((e.name, e.ts, sorted((k, v) for k, v in e.args.items() if k != "nbytes")))
        for e in tracer.events
        if e.cat == "approx"
    ]
    return {
        "spectra": _sha1(t.result.tobytes() for t in tickets if t.lattice),
        "stats": store.stats.as_dict(),
        "node_evals": lat.node_evals,
        "instants": (len(instants), _sha1(s.encode("ascii") for s in instants)),
    }


@pytest.mark.parametrize("case", sorted(WALKS))
def test_walk_traces_serve_the_recorded_bytes(case):
    assert _walk(case) == GOLDEN[case]


def _serve_reuse(seed: int) -> str:
    sys.path.insert(0, str(WALL))
    try:
        from spans import SpanRecorder
        from workloads import ServeReuse
    finally:
        sys.path.remove(str(WALL))
    workload = ServeReuse(seed, 1.0, SpanRecorder("serve_reuse"))
    workload.setup()
    return _sha1(
        t.result.tobytes() for _, tickets in workload.run_pass(0) for t in tickets
    )


@pytest.mark.parametrize("seed", sorted(SERVE_REUSE))
def test_serve_reuse_tickets_are_the_recorded_bytes(seed):
    assert _serve_reuse(seed) == SERVE_REUSE[seed]


_E_KEV = np.linspace(0.3, 3.0, 24)
_K_B_KEV = 8.617333262e-8


def _edged_exact(temperature_k: float) -> np.ndarray:
    """Spectrum-shaped, with bin ``b`` exactly zero while ``E_b > 9 kT``."""
    kt = _K_B_KEV * temperature_k
    flux = np.exp(-_E_KEV / kt) / np.sqrt(kt)
    flux[_E_KEV > 9.0 * kt] = 0.0
    return flux


def _direct(method: str) -> dict:
    lat = SpectrumLattice(
        LatticeSpec(1.0e6, 5.0e7, n_nodes=9, method=method), _edged_exact
    )
    assert any(
        0 < np.count_nonzero(v) < v.size for v in lat._values
    ), "no stencil straddles the zero edge"
    served, bounds = [], []
    # Refine in the middle, at both edges (9 is the last interval by
    # then) and twice in one place; probe before and after every step.
    for interval in (None, 3, 0, 9, 4, 4):
        if interval is not None:
            lat.refine(interval)
        temps = np.exp(lat._u)
        probes = np.concatenate(
            [temps, np.sqrt(temps[:-1] * temps[1:]), temps[1:] * (1 - 1e-12),
             temps[:-1] ** 0.3 * temps[1:] ** 0.7]
        )
        for t in probes:
            served.append(lat.interpolate(float(t)).tobytes())
            bounds.append(lat.error_bound(float(t)).tobytes())
    return {
        "spectra": _sha1(served),
        "bounds": _sha1(bounds),
        "certified": _sha1(
            np.float64(lat.certified_error(i)).tobytes()
            for i in range(lat.n_intervals)
        ),
        "node_evals": lat.node_evals,
        "nodes": _sha1(np.float64(u).tobytes() for u in lat._u),
    }


@pytest.mark.parametrize("method", INTERP_METHODS)
def test_direct_lattice_with_exact_zero_bins(method):
    assert _direct(method) == GOLDEN_DIRECT[method]


if __name__ == "__main__":  # prints the literals (run at the parent only)
    import pprint

    pprint.pprint({case: _walk(case) for case in sorted(WALKS)}, width=100)
    pprint.pprint({seed: _serve_reuse(seed) for seed in sorted(SERVE_REUSE)})
    pprint.pprint({m: _direct(m) for m in INTERP_METHODS}, width=100)
