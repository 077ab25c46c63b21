"""The discrete-event engine: determinism, causality, process semantics."""

import gc
import heapq
import weakref

import numpy as np
import pytest

from repro.cluster.simclock import SimClock, Signal, chain_key


def call_chain(clock: SimClock, hops, fn, arg) -> None:
    """Push ``fn(arg)`` as the one event :func:`chain_key` keys, as
    ``SimulatedGPU.submit`` pushes a single-slot device's task."""
    fire, scheduled_at = chain_key(clock.now, hops)
    clock._seq += 1
    heapq.heappush(clock._heap, (fire, scheduled_at, clock._seq, fn, arg))


class TestScheduling:
    def test_callbacks_in_time_order(self):
        clock = SimClock()
        order = []
        clock.call_at(2.0, order.append, "b")
        clock.call_at(1.0, order.append, "a")
        clock.call_at(3.0, order.append, "c")
        clock.run()
        assert order == ["a", "b", "c"]
        assert clock.now == 3.0

    def test_ties_broken_by_schedule_order(self):
        clock = SimClock()
        order = []
        for tag in "abc":
            clock.call_at(1.0, order.append, tag)
        clock.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.call_at(-1.0, print, None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.call_at(delay, print, None)
        assert clock.run() == 0.0

    def test_call_at_passes_its_argument(self):
        clock = SimClock()
        got = []
        clock.call_at(1.0, got.append, "x")
        clock.run()
        assert got == ["x"] and clock.now == 1.0

    def test_call_chain_fires_at_the_left_to_right_sum_of_its_hops(self):
        clock = SimClock()
        clock.now = 0.3
        got = []
        call_chain(clock, (0.1, 0.2, 0.7), lambda a: got.append((a, clock.now)), "x")
        clock.run()
        assert got == [("x", ((0.3 + 0.1) + 0.2) + 0.7)]
        assert got[0][1] != 0.3 + (0.1 + (0.2 + 0.7))  # the order matters

    @pytest.mark.parametrize(
        "hops",
        [(), (1.0, 0.0), (-1.0, 1.0), (float("nan"), 1.0), (1.0, float("inf")),
         (1.0e300, 1.0e-300)],
        ids=["empty", "zero-last", "negative", "nan", "inf", "absorbed-last"],
    )
    def test_call_chain_refuses_hops_it_cannot_stand_for(self, hops):
        clock = SimClock()
        with pytest.raises(ValueError):
            call_chain(clock, hops, print, None)
        assert clock.run() == 0.0

    def test_call_chain_allows_zero_hops_before_the_last(self):
        clock = SimClock()
        got = []
        call_chain(clock, (0.0, 0.0, 0.5), got.append, "x")
        assert clock.run() == 0.5 and got == ["x"]

    def test_run_until(self):
        clock = SimClock()
        fired = []
        clock.call_at(1.0, fired.append, 1)
        clock.call_at(5.0, fired.append, 5)
        clock.run(until=2.0)
        assert fired == [1]
        assert clock.now == 2.0
        clock.run()
        assert fired == [1, 5]

    @pytest.mark.parametrize("until", [3.0, float("nan")], ids=["before-now", "nan"])
    def test_run_until_refuses_to_move_time_back(self, until):
        """``until`` before ``now`` (or NaN) is refused before any event
        pops: time stays, the heap keeps every entry."""
        clock = SimClock()
        fired = []
        clock.call_at(6.0, fired.append, 6)
        clock.call_at(7.0, fired.append, 7)
        clock.run(until=6.5)
        assert clock.now == 6.5 and fired == [6]
        with pytest.raises(ValueError, match="until"):
            clock.run(until=until)
        assert clock.now == 6.5 and fired == [6] and len(clock._heap) == 1
        assert clock.run(until=6.5) == 6.5  # the present is not the past
        assert clock.run() == 7.0 and fired == [6, 7]

    def test_nested_scheduling(self):
        clock = SimClock()
        seen = []

        def outer(_arg):
            seen.append(clock.now)
            clock.call_at(1.5, lambda _a: seen.append(clock.now), None)

        clock.call_at(1.0, outer, None)
        clock.run()
        assert seen == [1.0, 2.5]


class TestProcesses:
    def test_timeout_yields(self):
        clock = SimClock()

        def proc():
            yield 1.0
            yield 2.0
            return "done"

        h = clock.spawn(proc())
        clock.run()
        assert clock.now == 3.0
        assert h.result == "done"
        assert not h.alive

    def test_signal_wait_and_payload(self):
        clock = SimClock()
        sig = Signal("data")
        got = []

        def waiter():
            payload = yield sig
            got.append((clock.now, payload))

        def firer():
            yield 2.0
            sig.fire(clock, payload={"x": 1})

        clock.spawn(waiter())
        clock.spawn(firer())
        clock.run()
        assert got == [(2.0, {"x": 1})]

    def test_already_fired_signal_returns_immediately(self):
        clock = SimClock()
        sig = Signal()
        sig.fire(clock, payload=7)

        def proc():
            payload = yield sig
            return payload

        h = clock.spawn(proc())
        clock.run()
        assert h.result == 7

    def test_double_fire_rejected(self):
        clock = SimClock()
        sig = Signal()
        sig.fire(clock)
        with pytest.raises(RuntimeError):
            sig.fire(clock)

    def test_join_process(self):
        clock = SimClock()

        def child():
            yield 3.0
            return 99

        def parent():
            h = clock.spawn(child(), name="child")
            result = yield h
            return (clock.now, result)

        h = clock.spawn(parent())
        clock.run()
        assert h.result == (3.0, 99)

    def test_multiple_waiters_all_wake(self):
        clock = SimClock()
        sig = Signal()
        woken = []

        def waiter(i):
            yield sig
            woken.append(i)

        for i in range(5):
            clock.spawn(waiter(i))
        clock.call_at(1.0, sig.fire, clock)
        clock.run()
        assert sorted(woken) == [0, 1, 2, 3, 4]

    def test_negative_yield_rejected(self):
        clock = SimClock()

        def proc():
            yield -1.0

        clock.spawn(proc())
        with pytest.raises(ValueError):
            clock.run()

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), np.float64("nan"), np.float64("inf")]
    )
    def test_non_finite_yield_rejected(self, delay):
        clock = SimClock()

        def proc():
            yield delay

        clock.spawn(proc())
        with pytest.raises(ValueError):
            clock.run()
        assert clock.now == 0.0

    def test_finished_processes_are_not_retained(self):
        """The clock keeps no list of what it ever spawned: a finished
        process (generator frame, result, done signal) is collectable."""
        clock = SimClock()

        def proc():
            yield 1.0
            return bytearray(8)

        ref = weakref.ref(clock.spawn(proc()))
        clock.run()
        gc.collect()
        assert ref() is None

    def test_bad_yield_type_rejected(self):
        clock = SimClock()

        def proc():
            yield "soon"

        clock.spawn(proc())
        with pytest.raises(TypeError):
            clock.run()


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build_and_run():
            clock = SimClock()
            trace = []

            def worker(i):
                yield 0.1 * (i % 3)
                trace.append((round(clock.now, 6), i))
                yield 0.2
                trace.append((round(clock.now, 6), i))

            for i in range(10):
                clock.spawn(worker(i))
            clock.run()
            return trace

        assert build_and_run() == build_and_run()

    def test_run_all_returns_makespan(self):
        clock = SimClock()

        def proc(d):
            yield d

        for d in (1.0, 4.0, 2.0):
            clock.spawn(proc(d))
        assert clock.run() == 4.0
