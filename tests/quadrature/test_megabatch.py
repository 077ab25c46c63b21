"""The window kernels under both of their names.

``batch_*_windows`` is ``megabatch_*_windows(...).values`` with the
zero-width elisions booked on ``KERNEL_COUNTERS``: one driver, so the
per-bin totals are bit-equal on any window set, the megabatch names
report launch statistics and book nothing, the per-ion names book.
"""

import numpy as np
import pytest

from repro.quadrature.batch import KERNEL_COUNTERS
from repro.quadrature.megabatch import (
    batch_gauss_windows,
    batch_romberg_windows,
    batch_simpson_windows,
    megabatch_gauss_windows,
    megabatch_romberg_windows,
    megabatch_simpson_windows,
)


@pytest.fixture()
def windows():
    """A small ragged window set with one zero-width (clipped) pair."""
    edges = np.linspace(0.0, 1.0, 9)
    first = np.array([0, 2, 5, 8])
    cutoff = np.array([3, 6, 8, 8])
    # Row 1's clip sits exactly on a bin's upper edge -> its first pair
    # [0.25, 0.375) clamps to [0.375, 0.375): zero width, elidable.
    clip = np.array([0.0, 0.375, 0.4, 0.9])
    return edges, first, cutoff, clip


def _f(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.exp(-x) * (1.0 + rows[:, None])


def booked(run):
    """``(what run() booked on KERNEL_COUNTERS, its result)``, read the
    way the wall probes read the counters: a snapshot before and after."""
    before = KERNEL_COUNTERS.snapshot()
    out = run()
    return {k: v - before[k] for k, v in KERNEL_COUNTERS.snapshot().items()}, out


_RULES = [
    (megabatch_simpson_windows, batch_simpson_windows, {"pieces": 8}),
    (megabatch_romberg_windows, batch_romberg_windows, {"k": 4}),
    (megabatch_gauss_windows, batch_gauss_windows, {"n": 6}),
]


class TestMatchesBatchKernels:
    @pytest.mark.parametrize("mega,batch,kw", _RULES)
    def test_values_identical(self, windows, mega, batch, kw):
        edges, first, cutoff, clip = windows
        expected = batch(_f, edges, first, cutoff, lower_clip=clip, **kw)
        res = mega(_f, edges, first, cutoff, lower_clip=clip, **kw)
        np.testing.assert_array_equal(res.values, expected)

    @pytest.mark.parametrize("mega,batch,kw", _RULES)
    def test_all_elided_row_set_identical(self, mega, batch, kw):
        """Every pair clamps to zero width: both names return zeros, the
        megabatch name reports the elisions, only the per-ion name books."""
        edges = np.linspace(0.0, 1.0, 9)
        first, cutoff = np.array([0, 1, 3]), np.array([2, 3, 4])
        clip = np.array([0.25, 0.5, 0.5])
        counted, res = booked(lambda: mega(_f, edges, first, cutoff, lower_clip=clip, **kw))
        assert counted == {"zero_width_pairs": 0, "evals_saved": 0}
        counted, got = booked(lambda: batch(_f, edges, first, cutoff, lower_clip=clip, **kw))
        np.testing.assert_array_equal(got, res.values)
        np.testing.assert_array_equal(got, np.zeros(8))
        assert (res.n_passes, res.n_pairs, res.n_pairs_skipped) == (0, 0, 5)
        assert counted == {"zero_width_pairs": 5, "evals_saved": res.evals_saved}

    def test_no_clip_matches_too(self, windows):
        edges, first, cutoff, _ = windows
        expected = batch_simpson_windows(_f, edges, first, cutoff, pieces=8)
        res = megabatch_simpson_windows(_f, edges, first, cutoff, pieces=8)
        np.testing.assert_array_equal(res.values, expected)
        assert res.n_pairs_skipped == 0


class TestLaunchStatistics:
    def test_pair_ledger(self, windows):
        edges, first, cutoff, clip = windows
        res = megabatch_simpson_windows(
            _f, edges, first, cutoff, lower_clip=clip, pieces=8
        )
        dense_pairs = int((cutoff - first).sum())
        assert res.n_pairs_skipped == 1
        assert res.n_pairs == dense_pairs - 1
        assert res.evals_saved == 9  # pieces + 1 points per elided pair
        assert res.n_passes >= 1

    def test_empty_windows(self):
        edges = np.linspace(0.0, 1.0, 5)
        first = np.array([4, 4])
        cutoff = np.array([4, 4])
        res = megabatch_simpson_windows(_f, edges, first, cutoff)
        assert res.n_passes == 0
        assert res.n_pairs == 0
        np.testing.assert_array_equal(res.values, np.zeros(4))

    def test_all_pairs_elided(self):
        edges = np.linspace(0.0, 1.0, 5)
        first = np.array([0])
        cutoff = np.array([1])
        clip = np.array([0.25])  # clamps the only pair to zero width
        res = megabatch_simpson_windows(
            _f, edges, first, cutoff, lower_clip=clip, pieces=4
        )
        assert res.n_pairs == 0
        assert res.n_pairs_skipped == 1
        np.testing.assert_array_equal(res.values, np.zeros(4))


class TestZeroWidthCounters:
    def test_batch_kernels_book_elisions(self, windows):
        edges, first, cutoff, clip = windows
        counted, _ = booked(
            lambda: batch_simpson_windows(_f, edges, first, cutoff, lower_clip=clip, pieces=8)
        )
        assert counted == {"zero_width_pairs": 1, "evals_saved": 9}

    def test_gauss_kernel_books_too(self, windows):
        edges, first, cutoff, clip = windows
        counted, _ = booked(lambda: batch_gauss_windows(_f, edges, first, cutoff, lower_clip=clip, n=6))
        assert counted == {"zero_width_pairs": 1, "evals_saved": 6}

    def test_unclipped_books_nothing(self, windows):
        edges, first, cutoff, _ = windows
        counted, _ = booked(lambda: batch_simpson_windows(_f, edges, first, cutoff, pieces=8))
        assert counted == {"zero_width_pairs": 0, "evals_saved": 0}
