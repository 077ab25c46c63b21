"""Active-window (CSR) kernels: one ragged batch per launch.

Each "row" is one level; row ``r`` touches only the bins
``first[r] <= b < cutoff[r]`` of a shared energy grid.  The flattened
(row, bin) pairs of *all* rows form one ragged batch that is evaluated
in memory-bounded vectorized passes and scatter-added into the per-bin
output spectrum — the software analogue of a CUDA kernel whose thread
blocks cover only the active tiles of the (levels x bins) iteration
space.  The paper's granularity lesson — pack many tiny integrals into
one launch so fixed overhead amortizes (Algorithm 2) — decides what a
"row" spans: the levels of one ion, or a flat structure-of-arrays of
level parameters covering a whole ion set (one launch per grid point
instead of ~496).

There is one driver (:func:`_run_megabatch`: flatten, elide zero-width
pairs, evaluate in chunks, scatter) and one function per rule on top of
it.  ``megabatch_*_windows`` return a :class:`MegabatchResult` — the
per-bin totals plus ``n_passes`` (vectorized launches), ``n_pairs``
(evaluated pairs) and the zero-width elision savings — which the plan
layer (:mod:`repro.physics.plan`) and the bench harness surface.  The
per-ion names ``batch_*_windows`` are the same call reduced to its
``values``, with the elisions booked on
:data:`repro.quadrature.batch.KERNEL_COUNTERS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.quadrature.batch import (
    KERNEL_COUNTERS,
    _chunks,
    _romberg_reduce,
    simpson_weights,
    unit_fractions,
)
from repro.quadrature.gauss_legendre import gauss_legendre_nodes
from repro.quadrature.simpson import DEFAULT_PIECES, _check_pieces

__all__ = [
    "MegabatchResult",
    "WindowIntegrand",
    "megabatch_simpson_windows",
    "megabatch_romberg_windows",
    "megabatch_gauss_windows",
    "batch_simpson_windows",
    "batch_romberg_windows",
    "batch_gauss_windows",
]

#: Ragged-batch integrand ``f(rows, x)``: ``rows`` carries the row
#: (level) index of each flattened pair, ``x`` the abscissae of that
#: pair's bin; must return values of ``x``'s shape.
WindowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MegabatchResult:
    """Per-bin totals plus execution statistics of one megabatch launch.

    Attributes
    ----------
    values:
        ``n_bins`` scatter-added window integrals (same numbers the
        per-ion kernels would produce, summed over all rows).
    n_passes:
        Vectorized integrand passes issued (chunks of the ragged batch).
    n_pairs:
        (row, bin) pairs actually evaluated after zero-width elision.
    n_pairs_skipped:
        Pairs elided because ``lower_clip`` clamping collapsed them.
    evals_saved:
        Integrand evaluations avoided by the elision
        (``n_pairs_skipped * points_per_pair``).
    """

    values: np.ndarray
    n_passes: int
    n_pairs: int
    n_pairs_skipped: int
    evals_saved: int


def _flatten_windows(
    first: np.ndarray, cutoff: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR expansion: per-pair (row index, bin index) arrays.

    ``first``/``cutoff`` are per-row half-open bin ranges; the result
    enumerates every active (row, bin) pair in row-major order.
    """
    first = np.asarray(first, dtype=np.int64)
    cutoff = np.asarray(cutoff, dtype=np.int64)
    if first.shape != cutoff.shape or first.ndim != 1:
        raise ValueError("first/cutoff must be matching 1-D arrays")
    counts = cutoff - first
    if np.any(counts < 0):
        raise ValueError("cutoff must be >= first for every row")
    rows = np.repeat(np.arange(first.size, dtype=np.int64), counts)
    # Within each row the bin index counts up from `first`; subtracting
    # each pair's offset-within-row start from a global arange yields the
    # concatenated ranges without a Python loop.
    starts = np.cumsum(counts) - counts
    bins = (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(starts, counts)
        + np.repeat(first, counts)
    )
    return rows, bins


def _window_bounds(
    edges: np.ndarray,
    bins: np.ndarray,
    rows: np.ndarray,
    lower_clip: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair integration bounds, clipping bin floors at the row edge."""
    lo = edges[bins]
    hi = edges[bins + 1]
    if lower_clip is not None:
        lower_clip = np.asarray(lower_clip, dtype=np.float64)
        lo = np.maximum(lo, lower_clip[rows])
        hi = np.maximum(hi, lo)
    return lo, hi


def _run_megabatch(
    f: WindowIntegrand,
    edges: np.ndarray,
    first: np.ndarray,
    cutoff: np.ndarray,
    lower_clip: np.ndarray | None,
    n_pts: int,
    make_x: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reduce: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> MegabatchResult:
    """Shared driver: flatten, elide, evaluate in chunks, scatter-add."""
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1-D array with at least 2 entries")
    n_bins = edges.size - 1
    rows, bins = _flatten_windows(first, cutoff)
    out = np.zeros(n_bins, dtype=np.float64)
    if rows.size == 0:
        return MegabatchResult(out, 0, 0, 0, 0)
    lo, hi = _window_bounds(edges, bins, rows, lower_clip)
    n_skipped = 0
    if lower_clip is not None:
        keep = hi > lo
        n_skipped = keep.size - int(np.count_nonzero(keep))
        if n_skipped:
            rows, bins, lo, hi = rows[keep], bins[keep], lo[keep], hi[keep]
            if rows.size == 0:
                return MegabatchResult(out, 0, 0, n_skipped, n_skipped * n_pts)
    n_passes = 0
    for sl in _chunks(rows.size, n_pts):
        x = make_x(lo[sl], hi[sl])
        y = np.asarray(f(rows[sl], x), dtype=np.float64)
        if y.shape != x.shape:
            raise ValueError(
                f"integrand returned shape {y.shape}, expected {x.shape}"
            )
        vals = reduce(y, lo[sl], hi[sl])
        out += np.bincount(bins[sl], weights=vals, minlength=n_bins)
        n_passes += 1
    return MegabatchResult(
        values=out,
        n_passes=n_passes,
        n_pairs=int(rows.size),
        n_pairs_skipped=n_skipped,
        evals_saved=n_skipped * n_pts,
    )


def _affine_x(n_pts: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    frac = unit_fractions(n_pts)

    def make_x(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return lo[:, None] + (hi - lo)[:, None] * frac[None, :]

    return make_x


def megabatch_simpson_windows(
    f: WindowIntegrand,
    edges: np.ndarray,
    first: np.ndarray,
    cutoff: np.ndarray,
    lower_clip: np.ndarray | None = None,
    pieces: int = DEFAULT_PIECES,
) -> MegabatchResult:
    """Composite Simpson over the active windows of many rows at once.

    Parameters
    ----------
    f:
        Ragged-batch integrand (:data:`WindowIntegrand`).
    edges:
        Shared grid edges (``n_bins + 1`` ascending entries).
    first, cutoff:
        Per-row half-open active bin ranges (e.g. from
        :func:`repro.physics.windows.level_windows`, or a plan's fused
        windows over the concatenated levels of a whole ion set).
    lower_clip:
        Optional per-row lower bound (the recombination edge); a bin
        whose floor lies below its row's clip is integrated from the
        clip upward, and a bin entirely below it is elided.

    Returns
    -------
    MegabatchResult
        Every row's window integrals scatter-added into one ``n_bins``
        spectrum, plus launch statistics.
    """
    _check_pieces(pieces)
    w = simpson_weights(pieces)

    def reduce(y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return (hi - lo) / pieces * (y @ w)

    return _run_megabatch(
        f, edges, first, cutoff, lower_clip, pieces + 1,
        _affine_x(pieces + 1), reduce,
    )


def megabatch_romberg_windows(
    f: WindowIntegrand,
    edges: np.ndarray,
    first: np.ndarray,
    cutoff: np.ndarray,
    lower_clip: np.ndarray | None = None,
    k: int = 7,
) -> MegabatchResult:
    """Romberg (``k`` dichotomy levels) over active windows; see
    :func:`megabatch_simpson_windows` for the calling convention."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n_pts = 2**k + 1

    def reduce(y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return _romberg_reduce(y, hi - lo, k)

    return _run_megabatch(
        f, edges, first, cutoff, lower_clip, n_pts, _affine_x(n_pts), reduce
    )


def megabatch_gauss_windows(
    f: WindowIntegrand,
    edges: np.ndarray,
    first: np.ndarray,
    cutoff: np.ndarray,
    lower_clip: np.ndarray | None = None,
    n: int = 8,
) -> MegabatchResult:
    """n-point Gauss-Legendre over active windows; see
    :func:`megabatch_simpson_windows` for the calling convention.

    Gauss nodes are not affine images of ``linspace(0, 1)``, so this
    rule carries its own (center, half-width) node mapping.
    """
    nodes, weights = gauss_legendre_nodes(n)

    def make_x(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        half = 0.5 * (hi - lo)
        center = 0.5 * (hi + lo)
        return center[:, None] + half[:, None] * nodes[None, :]

    def reduce(y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return 0.5 * (hi - lo) * (y @ weights)

    return _run_megabatch(
        f, edges, first, cutoff, lower_clip, n, make_x, reduce
    )


# ----------------------------------------------------------------------
# Per-ion names: the same launch, values only, elisions booked
# ----------------------------------------------------------------------
def _booked(result: MegabatchResult) -> np.ndarray:
    KERNEL_COUNTERS.book(result.n_pairs_skipped, result.evals_saved)
    return result.values


def batch_simpson_windows(
    f: WindowIntegrand,
    edges: np.ndarray,
    first: np.ndarray,
    cutoff: np.ndarray,
    lower_clip: np.ndarray | None = None,
    pieces: int = DEFAULT_PIECES,
) -> np.ndarray:
    """Per-bin totals of :func:`megabatch_simpson_windows`."""
    return _booked(
        megabatch_simpson_windows(f, edges, first, cutoff, lower_clip, pieces)
    )


def batch_romberg_windows(
    f: WindowIntegrand,
    edges: np.ndarray,
    first: np.ndarray,
    cutoff: np.ndarray,
    lower_clip: np.ndarray | None = None,
    k: int = 7,
) -> np.ndarray:
    """Per-bin totals of :func:`megabatch_romberg_windows`."""
    return _booked(
        megabatch_romberg_windows(f, edges, first, cutoff, lower_clip, k)
    )


def batch_gauss_windows(
    f: WindowIntegrand,
    edges: np.ndarray,
    first: np.ndarray,
    cutoff: np.ndarray,
    lower_clip: np.ndarray | None = None,
    n: int = 8,
) -> np.ndarray:
    """Per-bin totals of :func:`megabatch_gauss_windows`."""
    return _booked(
        megabatch_gauss_windows(f, edges, first, cutoff, lower_clip, n)
    )
