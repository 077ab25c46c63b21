"""Property-based tests of the event engine (hypothesis).

The simulator underpins every quantitative result in the reproduction —
causality, determinism and makespan arithmetic must hold for arbitrary
process populations, not only the hybrid runner's shapes.
"""

from collections import Counter, defaultdict
from functools import partial

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import Signal, SimClock

delays = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


@st.composite
def process_population(draw):
    """A set of processes, each a list of sleep durations."""
    return draw(st.lists(delays, min_size=1, max_size=10))


class TestClockProperties:
    @given(population=process_population())
    @settings(max_examples=100, deadline=None)
    def test_makespan_is_max_process_duration(self, population):
        clock = SimClock()

        def proc(sleeps):
            for d in sleeps:
                yield d

        for sleeps in population:
            clock.spawn(proc(sleeps))
        assert clock.run() == max(sum(s) for s in population)

    @given(population=process_population())
    @settings(max_examples=60, deadline=None)
    def test_observed_time_monotone(self, population):
        clock = SimClock()
        observations = []

        def proc(sleeps):
            for d in sleeps:
                yield d
                observations.append(clock.now)

        for sleeps in population:
            clock.spawn(proc(sleeps))
        clock.run()
        assert observations == sorted(observations)

    @given(population=process_population())
    @settings(max_examples=60, deadline=None)
    def test_trace_deterministic(self, population):
        def run_once():
            clock = SimClock()
            trace = []

            def proc(i, sleeps):
                for d in sleeps:
                    yield d
                    trace.append((i, clock.now))

            for i, s in enumerate(population):
                clock.spawn(proc(i, s), name=f"p{i}")
            clock.run()
            return trace

        assert run_once() == run_once()

    @given(
        population=process_population(),
        fire_after=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_signal_wakes_all_waiters_at_fire_time(self, population, fire_after):
        clock = SimClock()
        sig = Signal()
        wake_times = []

        def waiter(sleeps):
            for d in sleeps:
                yield d
            yield sig
            wake_times.append(clock.now)

        def firer():
            yield fire_after
            sig.fire(clock)

        for s in population:
            clock.spawn(waiter(s))
        clock.spawn(firer())
        clock.run()
        assert len(wake_times) == len(population)
        for t, sleeps in zip(sorted(wake_times), sorted(sum(s) for s in population)):
            assert t >= max(fire_after, sleeps) - 1e-12

    @given(population=process_population())
    @settings(max_examples=40, deadline=None)
    def test_join_returns_child_result(self, population):
        clock = SimClock()
        results = []

        def child(i, sleeps):
            for d in sleeps:
                yield d
            return i * 2

        def parent():
            handles = [
                clock.spawn(child(i, s), name=f"c{i}")
                for i, s in enumerate(population)
            ]
            for h in handles:
                value = yield h
                results.append(h.result)

        clock.spawn(parent())
        clock.run()
        assert results == [i * 2 for i in range(len(population))]


# ----------------------------------------------------------------------
# Executed order against a reference model
# ----------------------------------------------------------------------
#: Few distinct values, so ties at equal times are the common case; every
#: numeric type a process may yield, zero delays included.
DELAYS = st.sampled_from(
    [0.0, 0.25, 0.5, 1.0, 0, 1, 2, np.float64(0.0), np.float64(0.5)]
)
#: Chain hops: positive, and sums of two or three land on the delays
#: above, so a chained event ties on fire time with ordinary ones.
HOPS = st.lists(st.sampled_from([0.125, 0.25, 0.375, 0.5]), min_size=2, max_size=3)
N_SIGNALS = 3


@st.composite
def programs(draw):
    """Processes as op lists: sleep / wait / join yield, the rest do not."""
    n = draw(st.integers(min_value=1, max_value=5))
    op = st.one_of(
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(st.just("at"), DELAYS),
        st.tuples(st.just("chain"), HOPS.map(tuple)),
        st.tuples(st.sampled_from(["wait", "fire"]),
                  st.integers(min_value=0, max_value=N_SIGNALS - 1)),
        st.tuples(st.just("join"), st.integers(min_value=0, max_value=n - 1)),
    )
    return [draw(st.lists(op, max_size=6)) for _ in range(n)]


def reference_order(program):
    """The engine's contract restated: events run in ``sorted`` order of
    (time, time scheduled, schedule index); a chain is one event at the
    left-to-right sum of its hops, scheduled when its last link would
    have been; a fired signal schedules its waiters in wait order; a
    finished process fires its done signal.

    Returns the log and every event's (time, time scheduled, is a chain).
    """
    log, events, keys, fired, waiters = [], [], [], set(), defaultdict(list)
    now, seq, pc = 0.0, 0, [0] * len(program)

    def schedule(delays, fn):
        nonlocal seq
        seq += 1
        scheduled_at = fire = now
        for delay in delays:
            scheduled_at, fire = fire, fire + float(delay)
        events.append((fire, scheduled_at, seq, fn))
        keys.append((fire, scheduled_at, len(delays) > 1))

    def fire(key):
        fired.add(key)
        for fn in waiters.pop(key, []):
            schedule([0.0], fn)

    def when(key, fn):
        schedule([0.0], fn) if key in fired else waiters[key].append(fn)

    def step(p):
        while pc[p] < len(program[p]):
            i = pc[p]
            kind, x = program[p][i]
            pc[p] += 1
            log.append((p, i, now))
            if kind == "sleep":
                return schedule([x], lambda: step(p))
            if kind == "wait":
                return when(("sig", x), lambda: step(p))
            if kind == "join":
                return when(("done", x), lambda: step(p))
            if kind == "at":
                schedule([x], lambda i=i: log.append(("at", p, i, now)))
            elif kind == "chain":
                schedule(x, lambda i=i: log.append(("chain", p, i, now)))
            elif ("sig", x) not in fired:
                fire(("sig", x))
        fire(("done", p))

    for p in range(len(program)):
        schedule([0.0], lambda p=p: step(p))
    while events:
        events.sort(key=lambda e: e[:3])
        now, _, _, fn = events.pop(0)
        fn()
    return log, keys


def hop_by_hop(clock, hops, fn, arg):
    """The chain ``call_chain`` stands for: each event pushes the next."""
    if len(hops) == 1:
        clock.call_at(hops[0], fn, arg)
    else:
        clock.call_at(hops[0], lambda _: hop_by_hop(clock, hops[1:], fn, arg), None)


def engine_order(program, until, chained=True):
    clock = SimClock()
    log = []
    signals = [Signal(f"s{k}") for k in range(N_SIGNALS)]
    handles = []

    def proc(p):
        for i, (kind, x) in enumerate(program[p]):
            log.append((p, i, clock.now))
            if kind == "sleep":
                yield x
            elif kind == "wait":
                yield signals[x]
            elif kind == "join":
                yield handles[x]
            elif kind == "at":
                clock.call_at(x, lambda _a, i=i: log.append(("at", p, i, clock.now)), None)
            elif kind == "chain":
                push = clock.call_chain if chained else partial(hop_by_hop, clock)
                push(x, lambda _a, i=i: log.append(("chain", p, i, clock.now)), None)
            elif not signals[x].fired:
                signals[x].fire(clock)

    handles.extend(clock.spawn(proc(p), name=f"p{p}") for p in range(len(program)))
    if until is not None:
        clock.run(until=until)  # the peek-then-pop path, then the rest
    clock.run()
    return log


UNTIL = st.one_of(st.none(), st.floats(min_value=0.0, max_value=4.0))


class TestExecutedOrder:
    @given(program=programs(), until=UNTIL)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_model(self, program, until):
        assert engine_order(program, until) == reference_order(program)[0]

    @given(program=programs(), until=UNTIL)
    @settings(max_examples=300, deadline=None)
    def test_chain_runs_where_its_last_link_would(self, program, until):
        """One chained event and the hop-by-hop chain it stands for
        execute every observable callback in the same order, at the same
        floats — whenever no chained event shares *both* its fire time
        and its schedule time with another event.  That double tie falls
        back to ``seq``, where the chain's push is older than its last
        link's would be, and is not guaranteed (next test)."""
        keys = reference_order(program)[1]
        both = Counter((t, s) for t, s, _ in keys)
        assume(all(both[(t, s)] == 1 for t, s, chain in keys if chain))
        assert engine_order(program, until) == engine_order(program, until, chained=False)

    def test_a_tie_on_both_times_falls_back_to_push_order(self):
        """The limit of the key, pinned: an ordinary event pushed at the
        instant the last link would have been, for the same fire time,
        runs before the link but after the chained event."""

        def order(push_chain):
            clock, log = SimClock(), []
            clock.call_at(0.5, lambda _a: clock.call_at(0.5, log.append, "other"), None)
            push_chain(clock, (0.5, 0.5), log.append, "chain")
            clock.run()
            return log

        assert order(hop_by_hop) == ["other", "chain"]
        assert order(SimClock.call_chain) == ["chain", "other"]
