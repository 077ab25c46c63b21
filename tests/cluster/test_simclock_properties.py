"""Property-based tests of the event engine (hypothesis).

The simulator underpins every quantitative result in the reproduction —
causality, determinism and makespan arithmetic must hold for arbitrary
process populations, not only the hybrid runner's shapes.
"""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import SimClock

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

        makespan = clock.run_all([proc(s) for s in population])
        assert makespan == max(sum(s) for s in population)

    @given(population=process_population())
    @settings(max_examples=60, deadline=None)
    def test_observed_time_monotone(self, population):
        clock = SimClock()
        observations = []

        def proc(sleeps):
            for d in sleeps:
                yield d
                observations.append(clock.now)

        clock.run_all([proc(s) for s in population])
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
        sig = clock.signal()
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
N_SIGNALS = 3


@st.composite
def programs(draw):
    """Processes as op lists: sleep / wait / join yield, the rest do not."""
    n = draw(st.integers(min_value=1, max_value=5))
    op = st.one_of(
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(st.just("at"), DELAYS),
        st.tuples(st.sampled_from(["wait", "fire", "callback"]),
                  st.integers(min_value=0, max_value=N_SIGNALS - 1)),
        st.tuples(st.just("join"), st.integers(min_value=0, max_value=n - 1)),
    )
    return [draw(st.lists(op, max_size=6)) for _ in range(n)]


def reference_order(program):
    """The engine's contract restated: events run in ``sorted`` order of
    (time, schedule index); a fired signal schedules its waiters in wait
    order; a finished process fires its done signal."""
    log, events, fired, waiters = [], [], set(), defaultdict(list)
    now, seq, pc = 0.0, 0, [0] * len(program)

    def schedule(delay, fn):
        nonlocal seq
        seq += 1
        events.append((now + float(delay), seq, fn))

    def fire(key):
        fired.add(key)
        for fn in waiters.pop(key, []):
            schedule(0.0, fn)

    def when(key, fn):
        schedule(0.0, fn) if key in fired else waiters[key].append(fn)

    def step(p):
        while pc[p] < len(program[p]):
            i = pc[p]
            kind, x = program[p][i]
            pc[p] += 1
            log.append((p, i, now))
            if kind == "sleep":
                return schedule(x, lambda: step(p))
            if kind == "wait":
                return when(("sig", x), lambda: step(p))
            if kind == "join":
                return when(("done", x), lambda: step(p))
            if kind == "at":
                schedule(x, lambda i=i: log.append(("at", p, i, now)))
            elif kind == "callback":
                when(("sig", x), lambda i=i: log.append(("callback", p, i, now)))
            elif ("sig", x) not in fired:
                fire(("sig", x))
        fire(("done", p))

    for p in range(len(program)):
        schedule(0.0, lambda p=p: step(p))
    while events:
        events.sort(key=lambda e: e[:2])
        now, _, fn = events.pop(0)
        fn()
    return log


def engine_order(program, until):
    clock = SimClock()
    log = []
    signals = [clock.signal(f"s{k}") for k in range(N_SIGNALS)]
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
                clock.at(x, lambda i=i: log.append(("at", p, i, clock.now)))
            elif kind == "callback":
                signals[x].add_callback(
                    clock, lambda _p, i=i: log.append(("callback", p, i, clock.now))
                )
            elif not signals[x].fired:
                signals[x].fire(clock)

    handles.extend(clock.spawn(proc(p), name=f"p{p}") for p in range(len(program)))
    if until is not None:
        clock.run(until=until)  # the peek-then-pop path, then the rest
    clock.run()
    return log


class TestExecutedOrder:
    @given(
        program=programs(),
        until=st.one_of(st.none(), st.floats(min_value=0.0, max_value=4.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_model(self, program, until):
        assert engine_order(program, until) == reference_order(program)
