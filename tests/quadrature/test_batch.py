"""Batch (vectorized) integrators must agree with their scalar forms."""

import numpy as np
import pytest

from repro.quadrature.batch import (
    batch_romberg,
    batch_simpson,
    batch_simpson_edges,
    simpson_weights,
    unit_fractions,
)
from repro.quadrature.megabatch import (
    batch_gauss_windows,
    batch_romberg_windows,
    batch_simpson_windows,
)
from repro.quadrature.romberg import romberg
from repro.quadrature.simpson import simpson


def f_smooth(x):
    return np.exp(-x) * np.sin(3.0 * x) + 0.5


class TestSimpsonWeights:
    def test_pattern(self):
        w = simpson_weights(6) * 3.0
        assert np.allclose(w, [1, 4, 2, 4, 2, 4, 1])

    def test_sum_equals_pieces(self):
        # integral of 1 over [0, n] with h=1 must equal n.
        for pieces in (2, 8, 64):
            assert simpson_weights(pieces).sum() == pytest.approx(pieces)

    def test_odd_pieces_rejected(self):
        with pytest.raises(ValueError):
            simpson_weights(5)


class TestBatchSimpson:
    def test_matches_scalar_per_bin(self):
        lo = np.array([0.0, 0.5, 1.0, 2.0])
        hi = np.array([0.5, 1.0, 2.0, 2.25])
        batch = batch_simpson(f_smooth, lo, hi, pieces=64)
        for i in range(len(lo)):
            scalar = simpson(f_smooth, float(lo[i]), float(hi[i]), pieces=64)
            assert batch[i] == pytest.approx(scalar.value, rel=1e-13)

    def test_zero_width_bins_give_zero(self):
        lo = np.array([1.0, 2.0])
        hi = np.array([1.0, 3.0])
        out = batch_simpson(f_smooth, lo, hi)
        assert out[0] == 0.0
        assert out[1] != 0.0

    def test_single_bin(self):
        out = batch_simpson(f_smooth, np.array([0.0]), np.array([1.0]))
        assert out.shape == (1,)

    def test_large_batch_chunking(self, monkeypatch):
        """Chunked evaluation must be invisible in the results."""
        import repro.quadrature.batch as batch_mod

        lo = np.linspace(0.0, 10.0, 501)[:-1]
        hi = np.linspace(0.0, 10.0, 501)[1:]
        full = batch_simpson(f_smooth, lo, hi, pieces=16)
        monkeypatch.setattr(batch_mod, "MAX_GRID_ELEMENTS", 100)
        chunked = batch_simpson(f_smooth, lo, hi, pieces=16)
        # BLAS may reorder the reduction per chunk shape: ulp-level only.
        assert np.allclose(full, chunked, rtol=1e-14, atol=0.0)

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError):
            batch_simpson(f_smooth, np.zeros(3), np.ones(4))

    def test_bad_integrand_shape_rejected(self):
        with pytest.raises(ValueError):
            batch_simpson(lambda x: np.zeros(7), np.zeros(2), np.ones(2))


class TestBatchSimpsonEdges:
    def test_equivalent_to_lo_hi_form(self):
        edges = np.linspace(0.5, 3.0, 11)
        a = batch_simpson_edges(f_smooth, edges, pieces=32)
        b = batch_simpson(f_smooth, edges[:-1], edges[1:], pieces=32)
        assert np.array_equal(a, b)

    def test_total_equals_whole_interval(self):
        edges = np.linspace(0.0, 2.0, 9)
        total = batch_simpson_edges(f_smooth, edges, pieces=64).sum()
        whole = simpson(f_smooth, 0.0, 2.0, pieces=512).value
        assert total == pytest.approx(whole, rel=1e-8)

    def test_descending_edges_rejected(self):
        with pytest.raises(ValueError):
            batch_simpson_edges(f_smooth, np.array([1.0, 0.5, 2.0]))

    def test_short_edges_rejected(self):
        with pytest.raises(ValueError):
            batch_simpson_edges(f_smooth, np.array([1.0]))


class TestBatchRomberg:
    @pytest.mark.parametrize("k", [3, 7])
    def test_matches_scalar_romberg(self, k):
        lo = np.array([0.0, 1.0])
        hi = np.array([1.0, 2.5])
        batch = batch_romberg(f_smooth, lo, hi, k=k)
        for i in range(2):
            scalar = romberg(f_smooth, float(lo[i]), float(hi[i]), k=k)
            assert batch[i] == pytest.approx(scalar.value, rel=1e-12)

    def test_zero_width_bins(self):
        out = batch_romberg(f_smooth, np.array([1.0]), np.array([1.0]), k=4)
        assert out[0] == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            batch_romberg(f_smooth, np.zeros(1), np.ones(1), k=-1)

    def test_accuracy_improves_with_k(self):
        lo, hi = np.array([0.0]), np.array([np.pi])
        e_small = abs(batch_romberg(np.sin, lo, hi, k=3)[0] - 2.0)
        e_large = abs(batch_romberg(np.sin, lo, hi, k=7)[0] - 2.0)
        assert e_large < e_small


class TestCachedNodes:
    def test_simpson_weights_cached_and_readonly(self):
        a = simpson_weights(64)
        b = simpson_weights(64)
        assert a is b
        with pytest.raises(ValueError):
            a[0] = 99.0

    def test_unit_fractions_cached_and_readonly(self):
        a = unit_fractions(65)
        assert a is unit_fractions(65)
        assert a[0] == 0.0 and a[-1] == 1.0
        with pytest.raises(ValueError):
            a[0] = 99.0
        with pytest.raises(ValueError):
            unit_fractions(1)


def f_rows(rows, x):
    """Ragged-batch form of f_smooth, scaled per row."""
    return (1.0 + rows[:, None]) * f_smooth(x)


class TestWindowKernels:
    edges = np.linspace(0.0, 2.0, 9)  # 8 bins

    def _dense_reference(self, first, cutoff, pieces=32):
        """Row-by-row dense evaluation, zeroed outside each window."""
        out = np.zeros(self.edges.size - 1)
        for r, (a, b) in enumerate(zip(first, cutoff)):
            per_bin = batch_simpson_edges(
                lambda x, r=r: (1.0 + r) * f_smooth(x), self.edges, pieces=pieces
            )
            out[a:b] += per_bin[a:b]
        return out

    def test_full_windows_match_dense(self):
        first = np.array([0, 0, 0])
        cutoff = np.array([8, 8, 8])
        got = batch_simpson_windows(f_rows, self.edges, first, cutoff, pieces=32)
        assert np.allclose(got, self._dense_reference(first, cutoff), rtol=1e-12)

    def test_partial_windows_match_dense(self):
        first = np.array([0, 3, 5, 8])
        cutoff = np.array([2, 7, 5, 8])  # includes an empty window
        got = batch_simpson_windows(f_rows, self.edges, first, cutoff, pieces=32)
        assert np.allclose(got, self._dense_reference(first, cutoff), rtol=1e-12)

    def test_lower_clip_truncates_first_bin(self):
        # One row, one bin [0.5, 0.75], clipped to start at 0.6.
        edges = np.array([0.5, 0.75])
        got = batch_simpson_windows(
            f_rows,
            edges,
            np.array([0]),
            np.array([1]),
            lower_clip=np.array([0.6]),
            pieces=32,
        )
        want = batch_simpson(f_smooth, np.array([0.6]), np.array([0.75]), pieces=32)
        assert got[0] == pytest.approx(want[0], rel=1e-12)

    def test_clip_above_bin_gives_zero(self):
        edges = np.array([0.0, 1.0])
        got = batch_simpson_windows(
            f_rows,
            edges,
            np.array([0]),
            np.array([1]),
            lower_clip=np.array([5.0]),
        )
        assert got[0] == 0.0

    def test_romberg_and_gauss_variants_agree(self):
        first = np.array([1, 2])
        cutoff = np.array([6, 8])
        simp = batch_simpson_windows(f_rows, self.edges, first, cutoff, pieces=64)
        romb = batch_romberg_windows(f_rows, self.edges, first, cutoff, k=7)
        gauss = batch_gauss_windows(f_rows, self.edges, first, cutoff, n=12)
        assert np.allclose(romb, simp, rtol=1e-9)
        assert np.allclose(gauss, simp, rtol=1e-9)

    def test_scatter_add_overlapping_windows(self):
        # Two rows covering the same bin must accumulate, not overwrite.
        first = np.array([2, 2])
        cutoff = np.array([3, 3])
        got = batch_simpson_windows(f_rows, self.edges, first, cutoff, pieces=32)
        one = self._dense_reference(np.array([2]), np.array([3]))
        two = self._dense_reference(np.array([2, 2]), np.array([3, 3]))
        assert got[2] == pytest.approx(two[2], rel=1e-12)
        assert two[2] > one[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_simpson_windows(
                f_rows, self.edges, np.array([0, 1]), np.array([2])
            )
        with pytest.raises(ValueError):
            batch_simpson_windows(f_rows, np.array([1.0]), np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            batch_simpson_windows(
                lambda rows, x: x[..., :3],
                self.edges,
                np.array([0]),
                np.array([2]),
            )
        with pytest.raises(ValueError):
            batch_romberg_windows(
                f_rows, self.edges, np.array([0]), np.array([1]), k=-1
            )
