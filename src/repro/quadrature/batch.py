"""Vectorized batch integrators — the "GPU kernels" of the reproduction.

Algorithm 2 of the paper evaluates the RRC integrand for *every energy bin
of every level of one ion* inside a single CUDA kernel, accumulating the
per-bin emission array ``emi`` on the device before one result transfer
back to the host.  Without CUDA hardware, the numerically equivalent
formulation is a NumPy batch evaluation: one integrand call over a
``(n_bins, n_points)`` abscissa grid followed by a weighted reduction along
the points axis.  The simulated device in :mod:`repro.gpusim` wraps these
functions and charges launch/transfer/compute time to the event clock; the
*numbers* produced here are the real spectra used by the accuracy
experiments (Fig. 7 / Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.quadrature.gauss_legendre import gauss_legendre_nodes
from repro.quadrature.simpson import DEFAULT_PIECES, _check_pieces

__all__ = [
    "batch_simpson",
    "batch_simpson_edges",
    "batch_romberg",
    "linear_rule",
    "simpson_weights",
    "unit_fractions",
    "KERNEL_COUNTERS",
    "WindowKernelCounters",
]

#: Cap on the scratch grid size (in float64 elements) for one chunk of a
#: batched evaluation; larger batches are processed in slices so host
#: memory stays bounded regardless of workload size.
MAX_GRID_ELEMENTS: int = 8_000_000


@lru_cache(maxsize=64)
def simpson_weights(pieces: int) -> np.ndarray:
    """Composite Simpson weight vector (1, 4, 2, 4, ..., 2, 4, 1) / 3.

    Cached (the hot loops request the same ``pieces`` on every call);
    the returned array is read-only — copy before mutating.
    """
    _check_pieces(pieces)
    w = np.empty(pieces + 1, dtype=np.float64)
    w[0] = w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0
    w.setflags(write=False)
    return w


@lru_cache(maxsize=64)
def unit_fractions(n_points: int) -> np.ndarray:
    """``linspace(0, 1, n_points)`` — the cached unit node vector.

    Every fixed-node batch rule places its abscissae at
    ``lo + width * unit_fractions(n_points)``; caching the vector keeps
    the hot loops allocation-free.  Read-only — copy before mutating.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 nodes, got {n_points}")
    frac = np.linspace(0.0, 1.0, n_points)
    frac.setflags(write=False)
    return frac


@lru_cache(maxsize=64)
def linear_rule(method: str, order: int) -> tuple[np.ndarray, np.ndarray, float]:
    """A fixed-node rule as read-only ``(fractions, weights, norm)``:
    ``width / norm * sum_p weights[p] f(lo + width * fractions[p])``
    integrates ``f`` over ``[lo, lo + width]``; the weights are positive
    and sum to ``norm``.  ``order`` is Simpson's pieces (exact to degree
    3), Gauss-Legendre's points (``2 order - 1``) or Romberg's
    dichotomies (``2 order + 1``).  Romberg's tableau is linear in the
    samples, so run on the trapezoid ladder's weight rows instead (as
    :func:`_romberg_reduce` runs it on samples) it ends in one weight a node.
    """
    if method == "simpson":
        weights = simpson_weights(order)  # refuses bad pieces, naming them
        return unit_fractions(order + 1), weights, float(order)
    if method == "gauss":
        nodes, weights = gauss_legendre_nodes(order)
        frac = 0.5 * (nodes + 1.0)
        frac.setflags(write=False)
        return frac, weights, 2.0
    if method != "romberg" or order < 0:
        raise ValueError(f"no {method!r} rule of order {order}")
    table = np.zeros((order + 1, 2**order + 1))
    for level in range(order + 1):
        table[level, :: 2 ** (order - level)] = _trapezoid_weights(2**level) / 2**level
    for m in range(1, order + 1):
        table = (4.0**m * table[1:] - table[:-1]) / (4.0**m - 1.0)
    table.setflags(write=False)
    return unit_fractions(table.shape[1]), table[0], 1.0


@lru_cache(maxsize=64)
def _trapezoid_weights(panels: int) -> np.ndarray:
    w = np.full(panels + 1, 1.0)
    w[0] = w[-1] = 0.5
    w.setflags(write=False)
    return w


def _as_bounds(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(
            f"lower/upper bounds must be matching 1-D arrays, got {lo.shape} "
            f"and {hi.shape}"
        )
    return lo, hi


def _chunks(n_bins: int, n_points: int) -> list[slice]:
    rows_per_chunk = max(1, MAX_GRID_ELEMENTS // max(1, n_points))
    return [
        slice(start, min(start + rows_per_chunk, n_bins))
        for start in range(0, n_bins, rows_per_chunk)
    ]


def batch_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    pieces: int = DEFAULT_PIECES,
) -> np.ndarray:
    """Composite-Simpson integrals of ``f`` over many intervals at once.

    Parameters
    ----------
    f:
        Vectorized integrand; receives an array of any shape and must
        return values of the same shape (standard NumPy ufunc semantics).
    lo, hi:
        1-D arrays of per-bin lower/upper limits (``n_bins`` entries each).
    pieces:
        Even number of Simpson panels per bin (paper default: 64).

    Returns
    -------
    numpy.ndarray
        ``n_bins`` integral values, identical (to rounding) to looping
        :func:`repro.quadrature.simpson.simpson` over the bins.
    """
    lo, hi = _as_bounds(lo, hi)
    _check_pieces(pieces)
    out = np.empty(lo.size, dtype=np.float64)
    w = simpson_weights(pieces)
    frac = unit_fractions(pieces + 1)
    for sl in _chunks(lo.size, pieces + 1):
        width = hi[sl] - lo[sl]
        x = lo[sl][:, None] + width[:, None] * frac[None, :]
        y = np.asarray(f(x), dtype=np.float64)
        if y.shape != x.shape:
            raise ValueError(
                f"integrand returned shape {y.shape}, expected {x.shape}"
            )
        out[sl] = width / pieces * (y @ w)
    return out


def batch_simpson_edges(
    f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    pieces: int = DEFAULT_PIECES,
) -> np.ndarray:
    """Like :func:`batch_simpson` but for contiguous bins given by edges.

    ``edges`` has ``n_bins + 1`` ascending entries; bin *i* spans
    ``[edges[i], edges[i+1]]`` — the natural layout for spectral energy
    grids (Eq. 2 integrates over each bin of the output spectrum).
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1-D array with at least 2 entries")
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("edges must be strictly ascending")
    return batch_simpson(f, edges[:-1], edges[1:], pieces=pieces)


def batch_romberg(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    k: int = 7,
) -> np.ndarray:
    """Romberg integrals (``k`` dichotomy levels, Eq. 3) over many bins.

    Evaluation cost per bin is ``2**k + 1`` integrand samples, matching the
    paper's statement that single-task computation grows exponentially with
    ``k``; Fig. 6 / Table I sweep ``k`` in {7, 9, 11, 13}.
    """
    lo, hi = _as_bounds(lo, hi)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n_pts = 2**k + 1
    out = np.empty(lo.size, dtype=np.float64)
    frac = unit_fractions(n_pts)
    for sl in _chunks(lo.size, n_pts):
        width_col = (hi[sl] - lo[sl])[:, None]
        x = lo[sl][:, None] + width_col * frac[None, :]
        y = np.asarray(f(x), dtype=np.float64)
        out[sl] = _romberg_reduce(y, hi[sl] - lo[sl], k)
    return out


# ----------------------------------------------------------------------
# Savings ledger of the active-window kernels
# ----------------------------------------------------------------------
@dataclass
class WindowKernelCounters:
    """Process-global ledger of zero-width window pairs.

    ``lower_clip`` clamping can collapse a (row, bin) pair to zero width
    (the bin lies entirely below its row's recombination edge).  Such a
    pair contributes exactly 0.0, so the window driver
    (:mod:`repro.quadrature.megabatch`) elides it before the integrand
    pass and reports it on its result.  No kernel writes this ledger: it
    stays at zero, kept only because the wall benchmark's
    ``quadrature.pairs_skipped`` probe reads :meth:`snapshot`.
    """

    zero_width_pairs: int = 0
    evals_saved: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "zero_width_pairs": self.zero_width_pairs,
            "evals_saved": self.evals_saved,
        }


#: The process's one ledger (see :class:`WindowKernelCounters`).
KERNEL_COUNTERS = WindowKernelCounters()


def _romberg_reduce(y: np.ndarray, width: np.ndarray, k: int) -> np.ndarray:
    """Romberg tableau over rows of samples: ladder + Richardson (Eq. 3)."""
    # Trapezoid ladder, coarsest to finest, all bins at once.
    ladder = np.empty((k + 1, width.size), dtype=np.float64)
    for level in range(k + 1):
        step = 2 ** (k - level)
        samples = y[:, ::step]
        h = width / (2**level)
        ladder[level] = h * (
            0.5 * (samples[:, 0] + samples[:, -1]) + samples[:, 1:-1].sum(axis=1)
        )
    # Richardson extrapolation down the tableau (Eq. 3).
    table = ladder
    for m in range(1, k + 1):
        factor = 4.0**m
        table = (factor * table[1:] - table[:-1]) / (factor - 1.0)
    return table[0]
