"""Algorithm 1 semantics: SCHE-ALLOC / SCHE-FREE."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.metrics import MetricsLedger
from repro.core.scheduler import (
    NO_DEVICE,
    ClientServerScheduler,
    PredictiveScheduler,
    RandomScheduler,
    SharedMemoryScheduler,
    WeightedScheduler,
)


def counters(s):
    """Every counter list of a scheduler's segment, copied."""
    seg = s.segment
    return [list(c) for c in (seg.load, seg.history, seg.backlog, seg.steals, seg.donations)]


#: Every scheduler class, with the positional arguments it takes after
#: ``(n_devices, max_queue_length)`` for ``n`` devices.
CLASSES = {
    "shared": (SharedMemoryScheduler, lambda n: ()),
    "client-server": (ClientServerScheduler, lambda n: (1e-3,)),
    "random": (RandomScheduler, lambda n: ()),
    "weighted": (WeightedScheduler, lambda n: ([1.0] * max(n, 0),)),
    "predictive": (PredictiveScheduler, lambda n: ()),
}


def make(kind, n, max_len=2, **kw):
    cls, extra = CLASSES[kind]
    return cls(n, max_len, *extra(n), **kw)


class TestScheAlloc:
    def test_single_device_round_trip(self):
        s = SharedMemoryScheduler(n_devices=1, max_queue_length=2)
        assert s.sche_alloc() == 0
        assert s.loads() == [1]
        assert s.histories() == [1]
        s.sche_free(0)
        assert s.loads() == [0]
        assert s.histories() == [1]  # history is monotone

    @pytest.mark.parametrize("kind", ["random", "weighted"])
    def test_one_device_takes_the_task(self, kind):
        s = make(kind, 1)
        assert s.sche_alloc() == 0
        assert s.loads() == [1]

    def test_least_loaded_wins(self):
        s = SharedMemoryScheduler(n_devices=3, max_queue_length=4)
        assert s.sche_alloc() == 0
        assert s.sche_alloc() == 1
        assert s.sche_alloc() == 2
        # All loads equal 1; history also equal -> device 0 again.
        assert s.sche_alloc() == 0
        s.sche_free(2)
        # Device 2 now has the lowest load.
        assert s.sche_alloc() == 2

    def test_history_breaks_ties(self):
        """Among equally loaded devices, the least-used historically wins."""
        s = SharedMemoryScheduler(n_devices=2, max_queue_length=8)
        # Send three tasks to device 0's history, freeing each.
        for _ in range(3):
            d = s.sche_alloc()
            s.sche_free(d)
        # Histories now differ: [2, 1] (alternated by tie-break).
        h = s.histories()
        assert h[0] != h[1]
        less_used = h.index(min(h))
        assert s.sche_alloc() == less_used

    def test_full_load_returns_no_device(self):
        s = SharedMemoryScheduler(n_devices=2, max_queue_length=1)
        assert s.sche_alloc() == 0
        assert s.sche_alloc() == 1
        assert s.sche_alloc() == NO_DEVICE
        s.sche_free(0)
        assert s.sche_alloc() == 0

    def test_zero_devices_always_cpu(self):
        s = SharedMemoryScheduler(n_devices=0, max_queue_length=4)
        assert s.sche_alloc() == NO_DEVICE

    def test_load_never_exceeds_max(self):
        s = SharedMemoryScheduler(n_devices=2, max_queue_length=3)
        for _ in range(20):
            s.sche_alloc()
        assert all(l <= 3 for l in s.loads())
        s.validate()

    def test_free_without_occupy_rejected(self):
        s = SharedMemoryScheduler(n_devices=1, max_queue_length=2)
        with pytest.raises(RuntimeError):
            s.sche_free(0)

    def test_free_out_of_range_rejected(self):
        s = SharedMemoryScheduler(n_devices=1, max_queue_length=2)
        with pytest.raises(ValueError):
            s.sche_free(5)

    @pytest.mark.parametrize("kwargs", [dict(n_devices=-1, max_queue_length=2), dict(n_devices=1, max_queue_length=0)])
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            SharedMemoryScheduler(**kwargs)

    def test_metrics_hooks_invoked(self):
        m = MetricsLedger(n_devices=1, max_queue_length=2)
        s = SharedMemoryScheduler(1, 2, metrics=m)
        d = s.sche_alloc(now=1.0)
        s.sche_free(d, now=3.0)
        m.finalize(4.0)
        assert int(m.gpu_tasks.sum()) == 1
        # Residency: load 0 for [0,1) and [3,4), load 1 for [1,3).
        assert m.load_residency[0, 0] == pytest.approx(2.0)
        assert m.load_residency[0, 1] == pytest.approx(2.0)

    def test_shared_memory_scheduler_is_free(self):
        assert SharedMemoryScheduler(1, 2).rpc_latency_s == 0.0


class TestSegmentWrites:
    """The scheduler's own writes to the segment's counter lists: each
    call checks before its first write, so a refused call leaves every
    list as it was."""

    def test_alloc_free_cycle_moves_load_and_history(self):
        s = SharedMemoryScheduler(n_devices=2, max_queue_length=2)
        assert s.sche_alloc() == 0
        assert (s.loads(), s.histories()) == ([1, 0], [1, 0])
        s.sche_free(0)
        assert (s.loads(), s.histories()) == ([0, 0], [1, 0])

    @pytest.mark.parametrize("kind", sorted(CLASSES))
    def test_full_device_is_skipped_by_every_scan(self, kind):
        s = make(kind, 2)
        s.segment.load[0] = 2  # device 0 at its bound
        assert s.sche_alloc() == 1
        assert s.sche_alloc() == 1
        assert s.sche_alloc() == NO_DEVICE
        assert s.loads() == [2, 2]

    @pytest.mark.parametrize("kind", ["shared", "predictive"])
    def test_refused_free_leaves_the_segment_unchanged(self, kind):
        s = make(kind, 2)
        s.sche_alloc()
        before = counters(s)
        with pytest.raises(RuntimeError, match="without matching occupy"):
            s.sche_free(1)
        assert counters(s) == before

    def test_refused_backlog_release_leaves_the_segment_unchanged(self):
        s = PredictiveScheduler(2, 2)
        s.sche_alloc(ticks=5)
        before = counters(s)
        with pytest.raises(RuntimeError, match="exceeds admitted cost"):
            s.sche_free(0, ticks=6)
        assert counters(s) == before

    @pytest.mark.parametrize(
        "victim, thief, fill, ticks, match",
        [
            (1, 0, 0, 5, "empty queue"),
            (0, 1, 2, 5, "beyond max queue length"),
            (0, 1, 0, 6, "admitted cost"),
        ],
    )
    def test_refused_steal_leaves_the_segment_unchanged(self, victim, thief, fill, ticks, match):
        s = PredictiveScheduler(2, 2)
        s.sche_alloc(ticks=5)  # device 0 holds one task of 5 ticks
        s.segment.load[1] = fill
        before = counters(s)
        with pytest.raises(RuntimeError, match=match):
            s.on_steal(victim, thief, ticks=ticks)
        assert counters(s) == before

    def test_negative_ticks_refused_everywhere(self):
        s = PredictiveScheduler(2, 2)
        s.sche_alloc(ticks=5)
        before = counters(s)
        for call in (
            lambda: s.sche_alloc(ticks=-1),
            lambda: s.sche_free(0, ticks=-1),
            lambda: s.on_steal(0, 1, ticks=-1),
        ):
            with pytest.raises(ValueError, match="non-negative"):
                call()
        assert counters(s) == before

    def test_devices_independent_of_each_other(self):
        s = SharedMemoryScheduler(n_devices=3, max_queue_length=4)
        s.segment.load[1] = s.segment.load[2] = 1  # steer the scan to 0
        assert s.sche_alloc() == 0
        assert s.loads() == [1, 1, 1]
        assert s.histories() == [1, 0, 0]

    @pytest.mark.parametrize("kind", ["shared", "predictive"])
    def test_device_index_checked_on_every_write(self, kind):
        s = make(kind, 2)
        s.sche_alloc()
        before = counters(s)
        for device in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                s.sche_free(device)
        if kind == "predictive":
            with pytest.raises(ValueError, match="steal from itself"):
                s.on_steal(0, 0)
        assert counters(s) == before

    def test_history_monotone_across_many_cycles(self):
        s = SharedMemoryScheduler(n_devices=1, max_queue_length=3)
        for cycle in range(1, 11):
            assert s.sche_alloc() == 0
            assert s.histories() == [cycle]
            s.sche_free(0)
            assert s.histories() == [cycle]

    @pytest.mark.parametrize("kind", sorted(CLASSES))
    def test_every_constructor_checks_its_bounds(self, kind):
        with pytest.raises(ValueError, match="queue length"):
            make(kind, 1, max_len=0)
        with pytest.raises(ValueError, match="device count"):
            make(kind, -1)


class TestTieBreak:
    @pytest.mark.parametrize("kind", ["shared", "client-server", "weighted", "predictive"])
    def test_unknown_rule_refused(self, kind):
        with pytest.raises(ValueError, match="tie_break"):
            make(kind, 2, tie_break="bogus")

    @pytest.mark.parametrize("kind", ["shared", "client-server", "weighted"])
    def test_first_rule_is_positional(self, kind):
        first = make(kind, 3, 4, tie_break="first")
        history = make(kind, 3, 4)
        for _ in range(3):
            assert first.sche_alloc() == 0
            first.sche_free(0)
        assert [history.sche_alloc() for _ in range(3)] == [0, 1, 2]

    def test_weighted_with_equal_weights_is_algorithm_1_under_either_rule(self):
        for rule in ("history", "first"):
            reference = SharedMemoryScheduler(3, 4, tie_break=rule)
            weighted = WeightedScheduler(3, 4, [2.0] * 3, tie_break=rule)
            for step in range(9):
                assert weighted.sche_alloc() == reference.sche_alloc()
                if step % 3 == 2:
                    weighted.sche_free(1)
                    reference.sche_free(1)


class TestClientServerScheduler:
    def test_same_policy_with_latency(self):
        s = ClientServerScheduler(2, 2, rpc_latency_s=1e-3)
        assert s.rpc_latency_s == 1e-3
        assert s.sche_alloc() == 0  # identical dispatch policy

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ClientServerScheduler(1, 2, rpc_latency_s=-1.0)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="rpc_latency_s"):
            ClientServerScheduler(1, 2, rpc_latency_s=latency)


class TestBalancePolicy:
    def test_even_distribution_under_symmetric_load(self):
        """min-load + history tie-break spreads tasks evenly (the paper's
        goal for similar-size tasks)."""
        s = SharedMemoryScheduler(n_devices=4, max_queue_length=100)
        for _ in range(100):
            s.sche_alloc()
        assert s.loads() == [25, 25, 25, 25]

    def test_alloc_free_interleaving_stays_balanced(self):
        s = SharedMemoryScheduler(n_devices=3, max_queue_length=10)
        held = []
        for _ in range(30):
            held.append(s.sche_alloc())
            if len(held) >= 4:
                s.sche_free(held.pop(0))
        hist = s.histories()
        assert max(hist) - min(hist) <= 1


class TestWeightedScheduler:
    def _make(self, service=(1.0, 1.0), max_len=4):
        from repro.core.scheduler import WeightedScheduler

        return WeightedScheduler(len(service), max_len, service)

    def test_equal_weights_reduce_to_algorithm_1(self):
        reference = SharedMemoryScheduler(n_devices=3, max_queue_length=4)
        weighted = self._make(service=(1.0, 1.0, 1.0))
        for _ in range(9):
            assert weighted.sche_alloc() == reference.sche_alloc()

    def test_prefers_fast_device_under_load(self):
        # Device 1 is 3x slower: with one task on each, the fast device's
        # backlog (2 x 1.0) still beats the slow one's (2 x 3.0).
        s = self._make(service=(1.0, 3.0), max_len=4)
        assert s.sche_alloc() == 0  # backlog 1.0 vs 3.0
        assert s.sche_alloc() == 0  # backlog 2.0 vs 3.0
        assert s.sche_alloc() == 1  # backlog 3.0 vs 3.0 -> history tie? 3.0 == 3.0
        # With equal backlog the lower history count wins: device 1.

    def test_respects_queue_bound(self):
        from repro.core.scheduler import NO_DEVICE

        s = self._make(service=(1.0, 100.0), max_len=2)
        placements = [s.sche_alloc() for _ in range(4)]
        assert placements.count(0) == 2
        assert placements.count(1) == 2  # forced onto the slow device
        assert s.sche_alloc() == NO_DEVICE

    def test_validation(self):
        from repro.core.scheduler import WeightedScheduler

        with pytest.raises(ValueError):
            WeightedScheduler(2, 4, [1.0])  # wrong length
        with pytest.raises(ValueError):
            WeightedScheduler(2, 4, [1.0, 0.0])  # non-positive

    def test_hybrid_integration_beats_min_load_when_severe(self):
        from repro.core.granularity import WorkloadSpec, build_tasks
        from repro.core.hybrid import HybridConfig, HybridRunner
        from repro.gpusim.device import TESLA_C2075
        from repro.atomic.database import AtomicConfig

        tasks = build_tasks(
            WorkloadSpec(n_points=2, bins_per_level=20_000, db_config=AtomicConfig.tiny())
        )
        slow = replace(TESLA_C2075, eval_rate=TESLA_C2075.eval_rate / 4.0)
        fleet = (TESLA_C2075, slow)
        times = {}
        for kind in ("shared", "weighted"):
            cfg = HybridConfig(
                n_workers=4, n_gpus=2, max_queue_length=3,
                devices=fleet, scheduler_kind=kind,
            )
            times[kind] = HybridRunner(cfg).run(tasks).makespan_s
        assert times["weighted"] <= times["shared"] * 1.02


class TestPredictiveScheduler:
    def _make(self, n=3, max_len=4, **kw):
        from repro.core.scheduler import PredictiveScheduler

        return PredictiveScheduler(n, max_len, **kw)

    def test_equal_costs_reduce_to_algorithm_1(self):
        """With every predicted cost equal, backlog is load x cost, so the
        placement sequence is exactly Algorithm 1's."""
        reference = SharedMemoryScheduler(n_devices=3, max_queue_length=4)
        predictive = self._make()
        for _ in range(9):
            assert predictive.sche_alloc(cost_s=0.5) == reference.sche_alloc()

    def test_places_by_predicted_seconds_not_count(self):
        s = self._make(n=2)
        assert s.sche_alloc(cost_s=10.0) == 0
        # Device 0 holds one 10 s task; two 1 s tasks still finish
        # sooner on device 1 despite its higher count.
        assert s.sche_alloc(cost_s=1.0) == 1
        assert s.sche_alloc(cost_s=1.0) == 1
        assert s.backlog_ticks() == [s.cost_ticks(10.0), 2 * s.cost_ticks(1.0)]

    def test_free_restores_backlog_exactly(self):
        s = self._make(n=2)
        d = s.sche_alloc(cost_s=0.123456789)
        s.sche_free(d, cost_s=0.123456789)
        assert s.backlog_ticks() == [0, 0]
        assert s.loads() == [0, 0]
        s.validate()

    def test_slot_cap_still_hard(self):
        from repro.core.scheduler import NO_DEVICE

        s = self._make(n=2, max_len=1)
        assert s.sche_alloc(cost_s=0.1) == 0
        assert s.sche_alloc(cost_s=0.1) == 1
        assert s.sche_alloc(cost_s=0.1) == NO_DEVICE

    def test_history_tie_break_on_exact_tick_ties(self):
        s = self._make(n=2)
        # Alternates on exact ties like Algorithm 1.
        assert s.sche_alloc(cost_s=1.0) == 0
        assert s.sche_alloc(cost_s=1.0) == 1
        s.sche_free(0, cost_s=1.0)
        s.sche_free(1, cost_s=1.0)
        # Equal backlogs (zero) again; histories [1, 1] -> device 0.
        assert s.sche_alloc(cost_s=2.0) == 0

    def test_first_tie_break_is_positional(self):
        s = self._make(n=3, tie_break="first")
        for _ in range(2):
            d = s.sche_alloc(cost_s=1.0)
            s.sche_free(d, cost_s=1.0)
            assert d == 0

    def test_on_steal_moves_slot_and_backlog(self):
        s = self._make(n=2)
        assert s.sche_alloc(cost_s=1.0) == 0
        assert s.sche_alloc(cost_s=2.0) == 1
        assert s.sche_alloc(cost_s=0.5) == 0  # finish 1.5 vs 2.5
        s.on_steal(victim=0, thief=1, cost_s=0.5)
        assert s.loads() == [1, 2]
        assert s.backlog_ticks() == [s.cost_ticks(1.0), s.cost_ticks(2.0) + s.cost_ticks(0.5)]
        s.validate()
        # Conservation: freeing each with its carried cost zeroes out.
        s.sche_free(0, cost_s=1.0)
        s.sche_free(1, cost_s=2.0)
        s.sche_free(1, cost_s=0.5)
        assert s.backlog_ticks() == [0, 0]
        s.validate()

    def test_zero_ticks_are_a_cost_like_any_other(self):
        s = self._make(n=2)
        assert s.sche_alloc(ticks=0) == 0
        assert s.sche_alloc(ticks=0) == 1
        s.on_steal(victim=0, thief=1, ticks=0)
        s.sche_free(1, ticks=0)
        s.sche_free(1, ticks=0)
        assert s.loads() == [0, 0] and s.backlog_ticks() == [0, 0]
        s.validate()

    def test_alloc_hands_the_hook_the_new_load(self):
        calls = []
        hook = SimpleNamespace(on_load_change=lambda *change: calls.append(change))
        s = self._make(n=2, metrics=hook)
        for now in (1.5, 2.0, 2.5):
            s.sche_alloc(now, ticks=5)
        assert calls == [(0, 0, 1, 1.5), (1, 0, 1, 2.0), (0, 1, 2, 2.5)]

    def test_on_steal_rejects_out_of_range(self):
        s = self._make(n=2)
        s.sche_alloc(cost_s=1.0)
        with pytest.raises(ValueError):
            s.on_steal(victim=0, thief=5, cost_s=1.0)
        with pytest.raises(ValueError):
            s.on_steal(victim=-1, thief=1, cost_s=1.0)

    def test_on_steal_books_metrics(self):
        m = MetricsLedger(n_devices=2, max_queue_length=4)
        s = self._make(n=2, metrics=m)
        s.sche_alloc(now=0.0, cost_s=2.0)
        s.on_steal(victim=0, thief=1, now=1.0, cost_s=2.0)
        assert int(m.steals[1]) == 1
        assert int(m.donations[0]) == 1
        assert int(m.steals.sum()) == int(m.donations.sum())

    def test_negative_cost_rejected(self):
        s = self._make()
        with pytest.raises(ValueError):
            s.sche_alloc(cost_s=-1.0)

    def test_zero_devices_always_cpu(self):
        from repro.core.scheduler import NO_DEVICE

        s = self._make(n=0)
        assert s.sche_alloc(cost_s=1.0) == NO_DEVICE
