"""The rank pool: input order on either axis, selection by observation,
failure semantics, and the CPU count it sizes itself by.

Every pool here is private to its test and closed after it; the faults
are injected by functions that misbehave only when they find themselves
in a rank (``os.getpid() != caller``), so the caller's inline re-issue of
the same slice computes normally — which is the recovery under test.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ranks
from repro.parallel.ranks import RankPool, split_bounds

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
    reason="needs fork and affinity masks",
)

HEAVY = ranks.WORK_FLOOR  # one item of this price is worth a slice


def _squares(items, offset=0):
    return [x * x + offset for x in items]


def _killed_in_rank(items, caller):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return _squares(items)


def _hangs_up_in_rank(items, caller):
    if os.getpid() != caller:
        os._exit(0)
    return _squares(items)


def _short_in_rank(items, caller):
    out = _squares(items)
    return out[:-1] if os.getpid() != caller else out


def _not_a_list_in_rank(items, caller):
    return _squares(items) if os.getpid() == caller else "ok"


def _raises_in_rank(items, caller):
    if os.getpid() != caller:
        raise ValueError("rank-only failure")
    return _squares(items)


def _raises_on_13(items):
    if 13 in items:
        raise ValueError("unlucky item")
    return _squares(items)


def _pid_of(items):
    return [os.getpid() for _ in items]


def _rows_of(bins, offset=0):
    """The bin axis's kind of result: one array row per item of a range."""
    return np.array([[b, b * b + offset] for b in bins], dtype=float).reshape(-1, 2)


def _wide_rows_in_rank(bins, caller):
    rows = _rows_of(bins)
    return rows if os.getpid() == caller else np.hstack([rows, rows])


def _truncating_serve(rx, tx):
    """A rank that answers its first request with half a frame and dies."""
    fn, items, args = pickle.load(rx)
    frame = pickle.dumps(fn(items, *args), pickle.HIGHEST_PROTOCOL)
    tx.write(frame[: len(frame) // 2])
    tx.flush()
    os._exit(0)


@pytest.fixture()
def pool(monkeypatch):
    """A private pool on a host made to look 3 CPUs wide (two ranks,
    whatever the runner has: ranks need no CPU of their own to be
    correct)."""
    assert threading.active_count() == 1, threading.enumerate()
    monkeypatch.setattr(ranks, "usable_cpus", lambda: 3)
    pool = RankPool()
    yield pool
    pool.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestUsableCpus:
    """``usable_cpus``: the CPU count the rank pool sizes itself by."""

    def test_counts_the_affinity_mask_not_the_machine(self):
        assert 1 <= ranks.usable_cpus() <= (os.cpu_count() or 1)

    def test_pinned_process_gets_one_job(self):
        # In a subprocess: the mask is process state the suite shares.
        script = (
            "import os;"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
            "from repro.parallel import usable_cpus;"
            "print(usable_cpus())"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.stdout.split() == ["1"], done.stderr

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert ranks.usable_cpus() == (os.cpu_count() or 1)


class TestSplitBounds:
    @given(
        work=st.lists(st.integers(0, 1000), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_slices_are_contiguous_non_empty_and_balanced(self, work, data):
        n = data.draw(st.integers(1, len(work)))
        bounds = split_bounds(work, n)
        assert bounds[0] == 0 and bounds[-1] == len(work) and len(bounds) == n + 1
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        # No slice exceeds its share by more than one item's work.
        share = sum(work) / n
        for a, b in zip(bounds, bounds[1:]):
            assert sum(work[a:b]) <= share + max(work) or b - a == 1

    def test_equal_work_splits_evenly(self):
        assert split_bounds([5, 5, 5, 5], 2) == [0, 2, 4]
        assert split_bounds([7] * 9, 3) == [0, 3, 6, 9]

    def test_one_heavy_item_gets_its_own_slice(self):
        assert split_bounds([10, 1, 1, 1], 2) == [0, 1, 4]
        assert split_bounds([1, 1, 1, 10], 2) == [0, 3, 4]


class TestGather:
    def test_results_in_input_order_across_processes(self, pool):
        items = [9, 3, 3, 7, 1, 8, 2]
        got = pool.gather(_squares, items, [HEAVY] * len(items), 5)
        assert got == _squares(items, 5)
        assert pool.stats.forks == 2 and pool.stats.slices == 2
        pids = pool.gather(_pid_of, items, [HEAVY] * len(items))
        # Slice 0 ran here, the others on two distinct ranks, contiguously.
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        assert pids == sorted(pids, key=pids.index)

    def test_ranks_persist_across_calls(self, pool):
        first = pool.gather(_pid_of, [1, 2, 3], [HEAVY] * 3)
        second = pool.gather(_pid_of, [4, 5, 6], [HEAVY] * 3)
        assert first == second and pool.stats.forks == 2
        assert pool.stats.slices == 4

    def test_a_range_of_bins_joins_as_one_array(self, pool):
        got = pool.gather(_rows_of, range(7), [HEAVY] * 7, 5)
        np.testing.assert_array_equal(got, _rows_of(range(7), 5))
        assert pool.stats.forks == 2 and pool.stats.slices == 2

    def test_no_more_slices_than_items(self, pool):
        assert pool.gather(_squares, [4, 5], [HEAVY] * 2) == [16, 25]
        assert pool.stats.forks == 1

    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(-50, 50), max_size=9),
        data=st.data(),
    )
    def test_any_split_equals_the_serial_call(self, items, data):
        work = data.draw(
            st.lists(st.integers(0, 3 * HEAVY), min_size=len(items), max_size=len(items))
        )
        cpus = data.draw(st.integers(1, 4))
        pool = RankPool()
        try:
            with mock.patch.object(ranks, "usable_cpus", lambda: cpus):
                assert pool.gather(_squares, items, work, 1) == _squares(items, 1)
            assert pool.stats.faults == 0
            assert pool.stats.slices <= max(0, min(cpus, len(items)) - 1)
        finally:
            pool.close()

    def test_exception_of_fn_reaches_the_caller_and_the_pool_survives(self, pool):
        items = [1, 2, 3, 4, 5, 13]
        with pytest.raises(ValueError, match="unlucky"):
            pool.gather(_raises_on_13, items, [HEAVY] * 6)
        with pytest.raises(ValueError, match="unlucky"):
            pool.gather(_raises_on_13, [13, 2, 3, 4, 5, 6], [HEAVY] * 6)
        # No stale reply is left to answer this one.
        assert pool.gather(_squares, [1, 2, 3], [HEAVY] * 3) == [1, 4, 9]


class TestSelection:
    """Each condition alone sends the call down the serial path."""

    def _serial(self, pool, items, work):
        assert pool.gather(_pid_of, items, work) == [os.getpid()] * len(items)
        assert pool.stats.forks == 0 and pool.stats.slices == 0

    def test_one_usable_cpu(self):
        mask = os.sched_getaffinity(0)
        pool = RankPool()
        os.sched_setaffinity(0, {min(mask)})
        try:
            self._serial(pool, [1, 2, 3, 4], [HEAVY] * 4)
        finally:
            os.sched_setaffinity(0, mask)
            pool.close()

    def test_second_live_thread(self, pool):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            self._serial(pool, [1, 2, 3, 4], [HEAVY] * 4)
        finally:
            release.set()
            other.join(timeout=5)
        assert not other.is_alive()
        # ... and the same call forks once the caller is alone again.
        assert pool.gather(_squares, [1, 2], [HEAVY] * 2) == [1, 4]
        assert pool.stats.forks == 1

    def test_under_the_work_floor(self, pool):
        self._serial(pool, [1, 2, 3, 4], [HEAVY // 4] * 4)
        # One slice's worth more and there are two.
        pool.gather(_squares, [1, 2, 3, 4], [HEAVY // 2] * 4)
        assert pool.stats.slices == 1

    def test_single_item_and_no_items(self, pool):
        self._serial(pool, [1], [100 * HEAVY])
        self._serial(pool, [], [])

    def test_platform_without_fork(self, pool, monkeypatch):
        monkeypatch.delattr(os, "fork")
        self._serial(pool, [1, 2, 3, 4], [HEAVY] * 4)

    def test_request_that_does_not_pickle(self, pool):
        items = [1, 2, lambda: 3, 4]
        got = pool.gather(lambda xs: [id(x) for x in xs], items, [HEAVY] * 4)
        assert got == [id(x) for x in items]
        assert pool.stats.slices == 0 and pool.stats.faults == 0

    def test_busy_pool(self, pool):
        assert pool._busy.acquire(blocking=False)
        try:
            self._serial(pool, [1, 2, 3, 4], [HEAVY] * 4)
        finally:
            pool._busy.release()


class TestFaults:
    ITEMS = [5, 1, 4, 2, 3, 6]
    WORK = [HEAVY] * 6  # three slices of two

    @pytest.mark.parametrize(
        "fn",
        [_killed_in_rank, _hangs_up_in_rank, _short_in_rank,
         _not_a_list_in_rank, _raises_in_rank],
    )
    def test_only_the_lost_slice_is_reissued_and_the_rank_replaced(self, fn, pool, monkeypatch):
        monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)
        got = pool.gather(fn, self.ITEMS, self.WORK, os.getpid())
        assert got == _squares(self.ITEMS)
        assert pool.stats.faults == 1 and pool.stats.forks == 1
        assert pool.stats.reissued_items == 3  # the rank's half, no more
        assert not pool.quarantined and pool._ranks == []
        # The next call is served by a fresh rank.
        pids = pool.gather(_pid_of, self.ITEMS, self.WORK)
        assert pool.stats.forks == 2 and pool.stats.faults == 1
        assert len(set(pids)) == 2 and pool.stats.reissued_items == 3

    def test_array_reply_of_the_wrong_shape(self, pool, monkeypatch):
        monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)
        got = pool.gather(_wide_rows_in_rank, range(6), self.WORK, os.getpid())
        np.testing.assert_array_equal(got, _rows_of(range(6)))
        assert pool.stats.faults == 1 and pool.stats.reissued_items == 3

    def test_killed_rank_is_reaped(self, pool, monkeypatch):
        monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)
        pool.gather(_pid_of, self.ITEMS, self.WORK)
        (rank,) = pool._ranks
        pool.gather(_killed_in_rank, self.ITEMS, self.WORK, os.getpid())
        with pytest.raises(ChildProcessError):
            os.waitpid(rank.pid, os.WNOHANG)

    def test_surviving_slices_are_kept(self, pool):
        # Three slices, two ranks, both die: slice 0 is computed once.
        got = pool.gather(_killed_in_rank, self.ITEMS, self.WORK, os.getpid())
        assert got == _squares(self.ITEMS)
        assert pool.stats.faults == 2 and pool.stats.reissued_items == 4

    def test_truncated_reply(self, pool, monkeypatch):
        monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)
        monkeypatch.setattr(ranks, "_serve", _truncating_serve)
        assert pool.gather(_squares, self.ITEMS, self.WORK) == _squares(self.ITEMS)
        assert pool.stats.faults == 1 and pool.stats.reissued_items == 3
        monkeypatch.undo()
        monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)
        assert pool.gather(_squares, self.ITEMS, self.WORK) == _squares(self.ITEMS)
        assert pool.stats.faults == 1 and pool.stats.forks == 2

    def test_rank_found_dead_at_send(self, pool, monkeypatch):
        monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)
        pool.gather(_squares, self.ITEMS, self.WORK)
        (rank,) = pool._ranks
        os.kill(rank.pid, signal.SIGKILL)
        os.waitpid(rank.pid, 0)
        assert pool.gather(_squares, self.ITEMS, self.WORK) == _squares(self.ITEMS)
        assert pool.stats.faults == 1 and pool.stats.reissued_items == 3

    def test_three_consecutive_faults_quarantine_the_pool(self, pool, monkeypatch):
        monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)
        for strike in (1, 2):
            pool.gather(_killed_in_rank, self.ITEMS, self.WORK, os.getpid())
            assert pool.stats.faults == strike and not pool.quarantined
        # A good call in between resets the count ...
        pool.gather(_squares, self.ITEMS, self.WORK)
        for strike in (3, 4, 5):
            assert not pool.quarantined
            got = pool.gather(_killed_in_rank, self.ITEMS, self.WORK, os.getpid())
            assert got == _squares(self.ITEMS)
            assert pool.stats.faults == strike
        # ... three in a row end it: serial from here on, no rank left.
        assert pool.quarantined and pool._ranks == []
        forks = pool.stats.forks
        assert pool.gather(_pid_of, self.ITEMS, self.WORK) == [os.getpid()] * 6
        assert pool.stats.forks == forks and pool.stats.faults == 5

    def test_fork_failure_counts_and_runs_serial(self, pool, monkeypatch):
        def no_fork():
            raise OSError("EAGAIN")

        before = set(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", no_fork)
        for _ in range(3):
            assert pool.gather(_squares, self.ITEMS, self.WORK) == _squares(self.ITEMS)
        assert pool.quarantined and pool.stats.forks == 0
        assert set(os.listdir("/proc/self/fd")) == before  # no pipe end leaked


class TestLifetime:
    def test_close_kills_and_reaps_and_the_pool_forks_anew(self, pool):
        pids = set(pool.gather(_pid_of, [1, 2, 3], [HEAVY] * 3)) - {os.getpid()}
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
        pool.close()
        assert not any(_alive(pid) for pid in pids)
        again = set(pool.gather(_pid_of, [1, 2, 3], [HEAVY] * 3)) - {os.getpid()}
        assert len(again) == 2 and not again & pids

    @pytest.mark.parametrize("exit_line", ["pass", "os._exit(3)",
                                           "os.kill(os.getpid(), 9)"])
    def test_no_rank_outlives_its_parent(self, exit_line):
        script = textwrap.dedent(f"""
            import os, sys
            from repro.parallel import ranks

            ranks.usable_cpus = lambda: 3

            def pids(items):
                return [os.getpid() for _ in items]

            got = ranks.POOL.gather(pids, [1, 2, 3], [ranks.WORK_FLOOR] * 3)
            print(*sorted(set(got) - {{os.getpid()}}), flush=True)
            {exit_line}
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        pids = [int(word) for word in done.stdout.split()]
        assert len(pids) == 2, done.stderr
        deadline = time.monotonic() + 2.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(_alive(pid) for pid in pids)

    def test_import_forks_nothing(self):
        script = (
            "import repro.physics.plan, repro.parallel.ranks as r;"
            "assert r.POOL.stats.forks == 0 and not r.POOL._ranks"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
