"""Property-based scheduler tests: Algorithm 1 invariants under random
alloc/free traces, and the predictive tier's slot and tick conservation
under random alloc/free/steal traces (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import NO_DEVICE, PredictiveScheduler, SharedMemoryScheduler


@st.composite
def trace(draw):
    n_devices = draw(st.integers(min_value=1, max_value=6))
    max_len = draw(st.integers(min_value=1, max_value=8))
    ops = draw(st.lists(st.booleans(), min_size=1, max_size=200))
    return n_devices, max_len, ops


class TestSchedulerInvariants:
    @given(t=trace())
    @settings(max_examples=150, deadline=None)
    def test_invariants_under_random_traces(self, t):
        """Replay random alloc(True)/free(False) sequences; frees target a
        device we actually hold.  Invariants after every operation:

        - 0 <= load[d] <= max_queue_length
        - history[d] monotone non-decreasing
        - sum(load) == tasks currently held
        - NO_DEVICE iff every queue is full
        """
        n_devices, max_len, ops = t
        s = SharedMemoryScheduler(n_devices, max_len)
        held: list[int] = []
        histories = s.histories()
        for want_alloc in ops:
            if want_alloc or not held:
                d = s.sche_alloc()
                if d == NO_DEVICE:
                    assert all(l >= max_len for l in s.loads())
                else:
                    assert 0 <= d < n_devices
                    held.append(d)
            else:
                s.sche_free(held.pop(0))
            loads = s.loads()
            assert all(0 <= l <= max_len for l in loads)
            assert sum(loads) == len(held)
            new_hist = s.histories()
            assert all(b >= a for a, b in zip(histories, new_hist))
            histories = new_hist
            s.validate()

    @given(
        n_devices=st.integers(min_value=1, max_value=8),
        n_tasks=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_pure_alloc_spreads_evenly(self, n_devices, n_tasks):
        """With no frees and enough capacity, loads differ by at most 1."""
        s = SharedMemoryScheduler(n_devices, max_queue_length=1000)
        for _ in range(n_tasks):
            assert s.sche_alloc() != NO_DEVICE
        loads = s.loads()
        assert max(loads) - min(loads) <= 1
        assert sum(loads) == n_tasks

    @given(
        n_devices=st.integers(min_value=1, max_value=4),
        max_len=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_exactly_devices_times_maxlen(self, n_devices, max_len):
        s = SharedMemoryScheduler(n_devices, max_len)
        admitted = 0
        while s.sche_alloc() != NO_DEVICE:
            admitted += 1
            assert admitted <= n_devices * max_len + 1
        assert admitted == n_devices * max_len


@st.composite
def predictive_trace(draw):
    n_devices = draw(st.integers(min_value=1, max_value=5))
    max_len = draw(st.integers(min_value=1, max_value=4))
    op = st.tuples(
        st.sampled_from(["alloc", "free", "steal", "bad_free", "bad_steal"]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    ops = draw(st.lists(op, min_size=1, max_size=150))
    return n_devices, max_len, ops


def _segment(s: PredictiveScheduler) -> list[list[int]]:
    seg = s.segment
    return [list(c) for c in (seg.load, seg.history, seg.backlog, seg.steals, seg.donations)]


class TestPredictiveConservation:
    @given(t=predictive_trace())
    @settings(max_examples=150, deadline=None)
    def test_slots_and_ticks_conserve_under_alloc_free_steal(self, t):
        """Replay random ``sche_alloc(ticks=...)`` / ``sche_free`` /
        ``on_steal`` traces against a model of the tasks held (device,
        ticks).  Refused calls — a free or steal the segment cannot
        honour — must raise and leave every counter list as it was.
        After every operation:

        - 0 <= load[d] <= max_queue_length, and load[d] / backlog[d] are
          the count / summed ticks of the tasks held on d (so Σload is
          the tasks held and Σbacklog their ticks);
        - Σsteals == Σdonations == the steals made;
        - history never decreases;
        - ``validate()`` passes.
        """
        n_devices, max_len, ops = t
        s = PredictiveScheduler(n_devices, max_len)
        held: list[list[int]] = []  # [device, ticks] per admitted task
        steals = 0
        history = s.histories()
        for kind, ticks, a, b in ops:
            before = _segment(s)
            if kind == "alloc":
                d = s.sche_alloc(ticks=ticks)
                if d == NO_DEVICE:
                    assert all(l >= max_len for l in s.loads())
                    assert _segment(s) == before
                else:
                    held.append([d, ticks])
            elif kind == "free" and held:
                d, cost = held.pop(a % len(held))
                s.sche_free(d, ticks=cost)
            elif kind == "steal" and held:
                entry = held[a % len(held)]
                victim, thief = entry[0], b % n_devices
                refusal = (
                    ValueError if thief == victim
                    else RuntimeError if s.loads()[thief] >= max_len
                    else None
                )
                if refusal is None:
                    s.on_steal(victim, thief, ticks=entry[1])
                    entry[0] = thief
                    steals += 1
                else:
                    with pytest.raises(refusal):
                        s.on_steal(victim, thief, ticks=entry[1])
                    assert _segment(s) == before
            elif kind in ("bad_free", "bad_steal"):
                # One tick (or one task) more than the device holds.
                d = a % n_devices
                if kind == "bad_free":
                    with pytest.raises(RuntimeError):
                        s.sche_free(d, ticks=s.backlog_ticks()[d] + 1)
                elif n_devices > 1:
                    thief = (d + 1 + b % (n_devices - 1)) % n_devices
                    with pytest.raises(RuntimeError):
                        s.on_steal(d, thief, ticks=s.backlog_ticks()[d] + 1)
                assert _segment(s) == before
            loads, backlog = s.loads(), s.backlog_ticks()
            assert all(0 <= l <= max_len for l in loads)
            for d in range(n_devices):
                mine = [cost for dev, cost in held if dev == d]
                assert loads[d] == len(mine)
                assert backlog[d] == sum(mine)
            assert sum(loads) == len(held)
            assert sum(backlog) == sum(cost for _, cost in held)
            assert sum(s.segment.steals) == sum(s.segment.donations) == steals
            new_history = s.histories()
            assert all(y >= x for x, y in zip(history, new_history))
            history = new_history
            s.validate()
