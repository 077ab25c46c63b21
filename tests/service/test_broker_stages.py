"""The broker's stages one at a time, and the ladder with a tier taken out.

``SpectrumBroker._worker`` only sequences plain methods over one
``_Batch`` record and ``submit`` is an ``or`` chain of tiers, so a stage
runs on a hand-built record without a clock process around it and a tier
is removed by overriding one method.  None of this could be written
against the parent's 164-line generator.
"""

import numpy as np
import pytest

from repro.cluster.simclock import SimClock
from repro.obs import EventTracer
from repro.service import ServiceConfig, TrafficSpec, generate_trace, run_trace
from repro.service import broker as broker_module
from repro.service.batching import MegabatchGroup
from repro.service.broker import SpectrumBroker, Ticket, _Batch
from repro.service.requests import SpectrumRequest, request_spectrum

from tests.service.test_family_plan import _fields, _reference_tasks
from tests.service.test_serve_golden import CASES, GOLDEN, fingerprint


def _request(t: float, **kw) -> SpectrumRequest:
    return SpectrumRequest(temperature_k=t, z_max=6, n_bins=32, **kw)


def _open(broker: SpectrumBroker, request: SpectrumRequest, lane: str = "survey"):
    """What ``_admit`` leaves behind, minus the queue: entry plus leader."""
    entry = broker.coalescer.open(request.key, request, lane, 0.0)
    entry.subscribers.append(Ticket(request, lane, request.key, 0.0))
    return entry


def test_fan_back_completes_every_subscriber_once_and_caches_row_copies():
    clock = SimClock()
    broker = SpectrumBroker(clock)
    hot, cold = _request(2.0e7), _request(8.0e6)
    entries = [_open(broker, hot), _open(broker, cold)]
    follower = Ticket(hot, "interactive", hot.key, 0.5, coalesced=True)
    broker.coalescer.attach(entries[0], follower)
    batch = _Batch(entries, groups=[MegabatchGroup(tuple(entries))])

    broker._fan_back(batch, now=1.5)

    scope = (broker.db.config.n_max, broker.db.config.z_max)
    tickets = [entries[0].subscribers[0], follower, entries[1].subscribers[0]]
    for ticket in tickets:
        assert ticket.done and ticket.completed_at == 1.5
        assert np.array_equal(ticket.result, request_spectrum((ticket.request, *scope)))
    assert follower.result is tickets[0].result
    report = broker.report()
    assert report["completions"] == 3
    assert report["lanes"]["survey"]["computed"] == 2
    assert report["lanes"]["interactive"]["coalesced"] == 1
    # Row copies: a cached spectrum owns its memory, not its group's block.
    cached = [broker.cache.get(e.key, 1.5) for e in entries]
    assert all(c is t.result and c.base is None for c, t in zip(cached, tickets[::2]))
    assert not np.shares_memory(*cached)
    assert len(broker.coalescer) == 0
    for entry in entries:
        with pytest.raises(KeyError, match="no in-flight request"):
            broker.coalescer.resolve(entry.key)


@pytest.mark.parametrize("window", [None, 0.0], ids=["plain", "batching"])
def test_compile_emits_the_parent_loops_tasks_and_point_sequence(window):
    """Plain: request ``g`` is ``req{g}/...`` on point ``g``.  Batching:
    ``grp{p}/...x{W}`` with one point per ion task, continuing across
    groups — the sequence the parent's inline fork produced."""
    clock, tracer = SimClock(), EventTracer()
    tracer.bind(clock)
    broker = SpectrumBroker(clock, ServiceConfig(batch_window_s=window), tracer=tracer)
    families = (
        tuple(_request(t, tail_tol=1.0e-9) for t in (6.0e6, 1.0e7, 3.0e7)),
        (_request(1.0e7, rule="romberg"),),
    )
    batching = window is not None
    requests = [r for family in families for r in family]
    entries = [_open(broker, r) for r in requests]
    for i, entry in enumerate(entries):
        entry.subscribers[0].trace_id = 100 + i
    batch = _Batch(entries)
    broker._assemble(batch)
    broker._compile(batch)

    units = families if batching else [(r,) for r in requests]
    assert [g.requests for g in batch.groups] == list(units)
    want, point = [], 0
    for group, unit in zip(batch.groups, units):
        assert group.span_id > 0 and group.meta["width"] == len(unit)
        assert group.meta["members"] == [
            e.subscribers[0].trace_id for e in group.entries
        ]
        tasks = _reference_tasks(
            unit, broker.db, point_index=point, task_id_base=len(want),
            spread=batching, trace_parent=group.span_id, grouped=batching,
        )
        want += tasks
        point = tasks[-1].point_index + 1
    assert [_fields(t) for t in batch.tasks] == [_fields(t) for t in want]
    assert all(t.cpu_execute is None and t.execute is None for t in batch.tasks)
    n_ions = len(want) // len(units)
    points = [t.point_index for t in batch.tasks]
    if batching:
        assert points == list(range(len(want)))
    else:
        assert points == [g for g in range(len(units)) for _ in range(n_ions)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_observe_is_only_an_observer(case, tmp_path, monkeypatch):
    """No scrape, SLO sample or ledger fold: same tickets, same spectra."""
    monkeypatch.setattr(SpectrumBroker, "_observe", lambda self, now: None)
    got = fingerprint(case, tmp_path, monkeypatch)
    assert got["tickets"] == GOLDEN[case]["tickets"]
    assert got["tally"] == GOLDEN[case]["tally"]


class _NoLattice(SpectrumBroker):
    def _serve_lattice(self, ticket, now):
        return None


class _NoCacheEither(_NoLattice):
    def _serve_cached(self, ticket, now):
        return None


@pytest.mark.parametrize("pattern", ["walk", "zipf"])
@pytest.mark.parametrize("ladder", [_NoLattice, _NoCacheEither])
def test_a_tier_removed_from_the_ladder_still_serves_every_request(
    ladder, pattern, monkeypatch
):
    trace = generate_trace(
        TrafficSpec(n_requests=60, pattern=pattern, n_distinct=12, accuracy=1.0e-3, seed=7)
    )
    config = ServiceConfig(n_service_workers=2)
    full, _ = run_trace(trace, config)
    monkeypatch.setattr(broker_module, "SpectrumBroker", ladder)
    broker, tickets = run_trace(trace, config)

    assert isinstance(broker, ladder)
    scope = (broker.db.config.n_max, broker.db.config.z_max)
    for arrival, ticket in zip(trace, tickets):
        assert ticket.done and not ticket.lattice
        assert np.array_equal(ticket.result, request_spectrum((arrival.request, *scope)))
    report = broker.report()
    assert report["lost"] == 0 and report["lattice"]["requests"] == 0
    assert full.report()["lattice"]["hits"] > 0
    if ladder is _NoCacheEither:
        assert not any(t.cached for t in tickets)
        assert report["cache"]["hits"] == report["cache"]["misses"] == 0
    elif pattern == "zipf":
        assert any(t.cached for t in tickets)
