"""A single-slot device completes a task in one heap event.

The reference is the phased path itself: a multi-slot device still runs
it, and clearing the private ``_serial`` flag makes a single-slot device
run it too, so every check here is "one event" against "three events" on
the same spec, bit for bit.
"""

from dataclasses import replace

import pytest

from repro.cluster.simclock import SimClock
from repro.core.task import Task, TaskKind
from repro.gpusim.device import TESLA_C2075, TESLA_K20, SimulatedGPU
from repro.obs.tracer import EventTracer


def priced(**fields) -> Task:
    """A cost-only task with the given price fields."""
    return Task(0, TaskKind.ION, **fields)


FULL = priced(
    n_integrals=50_000, evals_per_integral=65, bytes_in=4096, bytes_out=8000,
    label="full",
)
#: Zero-length phases: no result transfer (cost-only kernels in tests and
#: probes), no integrals (a fully pruned ion), and both.
NO_EGRESS = priced(n_integrals=50_000, evals_per_integral=65, bytes_in=4096, label="no-egress")
NO_COMPUTE = priced(
    n_integrals=0, evals_per_integral=65, bytes_in=4096, bytes_out=8000,
    label="no-compute",
)
NEITHER = priced(n_integrals=0, evals_per_integral=65, bytes_in=4096, label="neither")


def phased(gpu: SimulatedGPU) -> SimulatedGPU:
    gpu._serial = False
    return gpu


def events_pushed(clock: SimClock) -> int:
    return clock._seq


class TestEventBudget:
    def test_single_slot_task_is_one_event(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        for _ in range(5):
            gpu.submit(FULL)
        clock.run()
        assert gpu.completed == 5
        assert events_pushed(clock) == 5

    def test_multi_slot_task_keeps_its_three_phases(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_K20)
        for _ in range(5):
            gpu.submit(FULL)
        clock.run()
        assert gpu.completed == 5
        assert events_pushed(clock) == 15

    @pytest.mark.parametrize("kernel,events", [(NO_COMPUTE, 1), (NO_EGRESS, 3), (NEITHER, 3)])
    def test_zero_length_egress_takes_the_phased_path(self, kernel, events):
        """A +0 last link cannot be chained (``simclock.chain_key``); a
        zero-length compute phase can."""
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        gpu.submit(kernel)
        clock.run()
        assert gpu.completed == 1
        assert events_pushed(clock) == events


class TestClosedForm:
    def test_completion_time_is_the_left_to_right_phase_sum(self):
        """((start + ingress) + compute) + egress, each task starting at
        its predecessor's completion — the floats three chained
        ``now + delay`` pushes produce."""
        clock = SimClock()
        clock.now = 0.1  # an inexact start, so the float order shows
        gpu = SimulatedGPU(clock, TESLA_C2075)
        kernels = [FULL, NO_COMPUTE, FULL, NO_EGRESS, FULL]
        finished = []
        for kernel in kernels:
            gpu.submit(kernel, wake=lambda _p: finished.append(clock.now))
        clock.run()
        expected, start = [], 0.1
        for kernel in kernels:
            ingress, compute, egress = TESLA_C2075.phase_times(kernel)
            start = ((start + ingress) + compute) + egress
            expected.append(start)
        assert [t.hex() for t in finished] == [t.hex() for t in expected]
        assert gpu.busy_time == expected[-1] - 0.1

    def test_spans_carry_the_phased_paths_floats(self):
        def spans(make):
            clock = SimClock()
            clock.now = 0.1
            tracer = EventTracer(clock)
            gpu = make(SimulatedGPU(clock, TESLA_C2075, tracer=tracer, track=3))
            for i, kernel in enumerate([FULL, NO_COMPUTE, FULL, NO_EGRESS, NEITHER, FULL]):
                gpu.submit(kernel, parent=10 + i)
            clock.run()
            return [
                (e.name, e.cat, e.track, e.ts.hex(), e.dur.hex(), e.parent, e.args)
                for e in tracer.events
            ], gpu.busy_time.hex()

        one_event, busy = spans(lambda gpu: gpu)
        three_events, busy_phased = spans(phased)
        assert [s[0] for s in one_event[:3]] == ["h2d+launch", "compute", "d2h"]
        # One device is serial, so even the append order agrees.
        assert one_event == three_events
        assert busy == busy_phased


class TestLockstep:
    @pytest.mark.parametrize(
        "kernels",
        [
            [FULL] * 4,
            [NO_EGRESS] * 4,
            [NO_COMPUTE] * 4,
            [NEITHER] * 4,
            [FULL, NO_EGRESS, NO_COMPUTE, NEITHER, FULL, NO_COMPUTE, NO_EGRESS, FULL],
        ],
        ids=["full", "no-egress", "no-compute", "neither", "mixed"],
    )
    def test_two_devices_in_lockstep_complete_as_the_phased_devices_do(self, kernels):
        """Every completion of one device ties with the other's on time,
        and each waiter's +0 resume sits in the same instant: order and
        times must be the phased devices'."""

        def completions(make):
            clock = SimClock()
            gpus = [make(SimulatedGPU(clock, TESLA_C2075, index=d)) for d in range(2)]
            log = []

            def rank(d):
                # Two submits up front keep one task waiting on the device.
                pending = [gpus[d].submit(kernels[0]), gpus[d].submit(kernels[1])]
                for i, kernel in enumerate(kernels[2:] + [None, None]):
                    yield pending.pop(0)
                    log.append((d, i, clock.now.hex()))
                    if kernel is not None:
                        pending.append(gpus[d].submit(kernel))

            for d in range(2):
                clock.spawn(rank(d), name=f"rank{d}")
            clock.run()
            return log

        got = completions(lambda gpu: gpu)
        assert len(got) == 2 * len(kernels)
        assert got == completions(phased)

    @pytest.mark.parametrize("kernel", [NO_EGRESS, NEITHER], ids=["no-egress", "neither"])
    def test_a_zero_length_egress_stays_behind_the_plus_zero_events_of_its_instant(
        self, kernel
    ):
        """Why that job is phased: at the instant compute ends, a +0
        event pushed by an event that ran before ``_finish_compute`` is
        ahead of the +0 ``_complete``; a chained completion, keyed
        (t, t, older seq), would jump it."""
        def order(make):
            clock = SimClock()
            log = []
            ingress, compute, _ = TESLA_C2075.phase_times(kernel)
            clock.call_at(  # an event that pushes a +0 one, as a fire with one waiter
                (0.0 + ingress) + compute,
                lambda _: clock.call_at(0.0, lambda _p: log.append("observer"), None), None,
            )
            for d in range(2):
                gpu = make(SimulatedGPU(clock, TESLA_C2075, index=d))
                gpu.submit(replace(kernel, execute=lambda d=d: log.append(d)))
            clock.run()
            return log

        assert order(lambda gpu: gpu) == order(phased) == ["observer", 0, 1]
