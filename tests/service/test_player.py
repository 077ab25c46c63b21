"""The trace player against its reference, and the content address
against its reference rendering.

``reference_play_trace`` is the player as it was written first: one
simulated client process per arrival, which submits at its arrival time
and sleeps out its backoff after each rejection.  ``play_trace`` submits
inside the dispatcher's own event and re-arms a clock callback only for
a rejected arrival; a ticket a reuse tier answers needs nothing more.
That moves when some same-instant events run relative to each other, and
these tests show that no ticket and no report can tell.

``reference_canonical`` is ``SpectrumRequest.canonical`` as an f-string
join; the one-format rendering must equal it byte for byte, or every key,
cache entry and golden would move.
"""

from __future__ import annotations

from typing import Generator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.broker import (
    MAX_RETRY_BACKOFF,
    ServiceConfig,
    play_trace,
    trace_broker,
)
from repro.service.loadgen import TrafficSpec, generate_trace
from repro.service.requests import SpectrumRequest


def reference_play_trace(broker, trace):
    """A client process per arrival: the player's reference semantics."""
    clock = broker.clock
    broker.start()
    tickets = [None] * len(trace)

    def client(i, arrival) -> Generator:
        attempt = 0
        while True:
            ticket = broker.submit(arrival.request, lane=arrival.lane, retry=attempt > 0)
            if not ticket.rejected:
                tickets[i] = ticket
                if not ticket.done:
                    yield ticket.signal
                return
            backoff = min(2.0**attempt, MAX_RETRY_BACKOFF)
            attempt += 1
            yield ticket.retry_after_s * backoff

    def dispatcher() -> Generator:
        for i, arrival in enumerate(trace):
            delay = arrival.t - clock.now
            if delay > 0:
                yield delay
            clock.spawn(client(i, arrival), name=f"client{i}")

    clock.spawn(dispatcher(), name="dispatcher")
    clock.run()
    broker.bus.finalize(clock.now)
    return tickets


def _ticket_row(ticket) -> tuple:
    return (
        ticket.status, ticket.key, ticket.cached, ticket.coalesced, ticket.lattice,
        ticket.error_bound, ticket.submitted_at, ticket.completed_at,
        ticket.result.tobytes(),
    )


PLAIN = ServiceConfig(n_service_workers=2)
BATCHING = ServiceConfig(
    n_service_workers=2, queue_capacity=96, batch_max=32, batch_width_max=32,
    batch_window_s=0.05,
)
#: Two queue slots and one worker under a fast trace: rejections and
#: backed-off retries, several per arrival.
TIGHT = ServiceConfig(n_service_workers=1, queue_capacity=2)

TRAFFIC = {
    "zipf": (dict(n_requests=120, pattern="zipf", n_distinct=32), PLAIN),
    "walk": (dict(n_requests=60, pattern="walk", accuracy=1.0e-3), PLAIN),
    "burst": (dict(
        n_requests=64, pattern="uniform", n_distinct=512, burst=16, n_bins=128,
        tolerance=1.0e-9,
    ), BATCHING),
    "tight": (dict(
        n_requests=60, pattern="uniform", n_distinct=40, mean_interarrival_s=0.005,
    ), TIGHT),
}


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("traffic", sorted(TRAFFIC))
def test_player_matches_the_client_per_arrival_reference(traffic, seed):
    spec, config = TRAFFIC[traffic]
    trace = generate_trace(TrafficSpec(seed=seed, **spec))
    reference, player = trace_broker(config), trace_broker(config)
    want = reference_play_trace(reference, trace)
    got = play_trace(player, trace)
    assert all(t is not None and t.done for t in got)
    assert [_ticket_row(t) for t in got] == [_ticket_row(t) for t in want]
    assert player.report() == reference.report()
    if traffic == "tight":
        assert player.report()["rejections"] > 0 and player.report()["retries"] > 0


@pytest.mark.parametrize("traffic", ["tight", "zipf"])
def test_player_traces_what_the_reference_traces(traffic):
    """Span ids are drawn at submission, so a reordered submit would
    show here first: every event, id and timestamp is the reference's."""
    from repro.obs import EventTracer

    spec, config = TRAFFIC[traffic]
    trace = generate_trace(TrafficSpec(seed=7, **spec))
    reference, player = trace_broker(config, tracer=EventTracer()), trace_broker(
        config, tracer=EventTracer()
    )
    reference_play_trace(reference, trace)
    play_trace(player, trace)
    assert list(player.tracer.events) == list(reference.tracer.events)
    assert player.cost_report() == reference.cost_report()


def reference_canonical(r: SpectrumRequest) -> str:
    fields = [
        f"T={r.temperature_k:.9e}", f"ne={r.ne_cm3:.9e}", f"z={r.z_max}",
        f"bins={r.n_bins}", f"rule={r.rule}", f"tol={r.tolerance:.3e}",
        f"tt={r.tail_tol:.3e}",
    ]
    if r.accuracy > 0.0:
        fields.append(f"acc={r.accuracy:.3e}")
    return "|".join(fields)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.integers(
    min_value=1, max_value=10**30
)
_non_negative = st.just(0.0) | st.just(-0.0) | st.just(0) | _positive


@settings(max_examples=300, deadline=None)
@given(
    temperature_k=_positive, ne_cm3=_positive,
    z_max=st.integers(min_value=1, max_value=10**12) | st.just(True),
    n_bins=st.integers(min_value=1, max_value=10**12),
    rule=st.sampled_from(["simpson", "romberg"]),
    tolerance=_positive, tail_tol=_non_negative, accuracy=_non_negative,
)
def test_canonical_is_the_f_string_join(
    temperature_k, ne_cm3, z_max, n_bins, rule, tolerance, tail_tol, accuracy
):
    request = SpectrumRequest(
        temperature_k=temperature_k, ne_cm3=ne_cm3, z_max=z_max, n_bins=n_bins,
        rule=rule, tolerance=tolerance, tail_tol=tail_tol, accuracy=accuracy,
    )
    assert request.canonical() == reference_canonical(request)
    assert ("|acc=" in request.canonical()) == (accuracy > 0)
