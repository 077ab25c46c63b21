"""The one Simpson RRC kernel: shared abscissae, factorized Gaunt blocks.

Every Simpson evaluation of the collapsed Eq. (1) integrand

    f_l(E) = C_l * exp(-(E - I_l)/kT) * g(E / I_l)        (E >= I_l)

goes through :func:`simpson_rrc` — one ion's levels
(:func:`repro.physics.apec.ion_emissivity_batched`) or a whole plan's
(:meth:`repro.physics.plan.SpectrumPlan.execute_many`), dense
(``cutoff = n_bins``) or pruned, one temperature or a batch.

Every bin not split by a recombination edge uses the same Simpson nodes
for every level, and the integrand factorizes about the bin's lower edge
``E_b``:

    f_l(E) = C_l * exp(-(E_b - I_l)/kT) * exp(-(E - E_b)/kT) * g(E / I_l)

What is shared, and across what:

- **across levels** — the node offsets ``E - E_b``, ``cbrt(E)`` and the
  step-times-weight products exist once per ``(grid, pieces)``
  (:class:`SimpsonNodes`), the node weights ``exp(-(E - E_b)/kT) h w``
  once per temperature; a level contributes one ``exp`` per *bin*, not
  per node;
- **across temperatures** — the Gaunt factor depends on ``E / I_l``
  alone.  With ``u = cbrt(E)`` and ``k = cbrt(I_l)`` the rational of
  :func:`repro.physics.rrc.gaunt_factor` is

      g = (B/E) k * (u + (A/B) k) / (u^2 + (D/E) k^2),

  two adds and a divide per node, evaluated once per level block and
  reduced against each temperature's node weights in turn.

Both exponents are <= 0 inside a window, so nothing can overflow at any
``kT`` and the split adds two roundings per node to the unfactored
integrand (a few ``eps`` relative, for ``tail_tol = 0`` and ``> 0``
alike): the kernel needs no temperature guard and has no fallback.

Levels are walked in a fixed order (ascending first full bin) in blocks
of :data:`_LEVEL_BLOCK`, bins in tiles that keep each of the two
per-thread scratch buffers at :data:`_SCRATCH_ELEMENTS` float64, so a
call allocates nothing larger than a spectrum.  Order, block partition
and the per-pair reduction depend on the grid and the levels only —
never on which temperatures share a batch — so a batch's row ``j`` is
bit-identical to evaluating temperature ``j`` alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.physics.rrc import gaunt_factor
from repro.physics.spectrum import EnergyGrid
from repro.quadrature.batch import _chunks, simpson_weights, unit_fractions
from repro.quadrature.megabatch import MegabatchResult

__all__ = ["SimpsonNodes", "simpson_rrc"]

#: Levels per block and float64 elements per scratch buffer (512 KiB;
#: two buffers per thread).  Measured on the 400-bin x 65-node benchmark
#: grid (docs/ARCHITECTURE.md section 8): blocks of 1-8 levels and buffers
#: of 256 KiB-2 MiB land within 15 % of each other, so these are
#: constants, not knobs.
_LEVEL_BLOCK = 4
_SCRATCH_ELEMENTS = 1 << 16

#: Temperatures reduced against one evaluation of a block's rational;
#: bounds the node weights alive at once (and memoized) at 8 matrices.
_TEMPERATURE_BLOCK = 8

# gaunt_factor's rational, g = (A + B c) / (D + E c^2) with c = cbrt(x).
_B, _E = 0.1728, 0.0496
_A, _D = 1.0 - _B, 1.0 - _E


@dataclass(frozen=True)
class SimpsonNodes:
    """Temperature-independent node arrays of one ``(grid, pieces)``,
    shared by every plan and per-ion call on the same edges
    (content-addressed by the edge bytes, a handful of grids kept).

    All ``(n_bins, pieces + 1)`` and read-only: each node's offset
    ``above`` its bin's lower edge, ``cbrt`` of the node energy and its
    square, and ``hw`` — the bin step ``width / pieces`` times the
    Simpson weight of each node.
    """

    above: np.ndarray
    cbrt: np.ndarray
    cbrt2: np.ndarray
    hw: np.ndarray


@lru_cache(maxsize=8)
def _nodes_of_edges(edge_bytes: bytes, pieces: int) -> SimpsonNodes:
    edges = np.frombuffer(edge_bytes, dtype=np.float64)
    widths = np.diff(edges)
    above = widths[:, None] * unit_fractions(pieces + 1)[None, :]
    cbrt = np.cbrt(edges[:-1, None] + above)
    hw = (widths / pieces)[:, None] * simpson_weights(pieces)[None, :]
    nodes = SimpsonNodes(above, cbrt, cbrt * cbrt, hw)
    for arr in (nodes.above, nodes.cbrt, nodes.cbrt2, nodes.hw):
        arr.setflags(write=False)
    return nodes


@lru_cache(maxsize=_TEMPERATURE_BLOCK)
@np.errstate(under="ignore")
def _node_weights(edge_bytes: bytes, pieces: int, kt: float) -> np.ndarray:
    """``exp(-(E - E_b)/kT) h w`` over the whole grid: everything
    temperature contributes per node.  Memoized so the ions of one grid
    point, which arrive as separate per-ion calls, share one ``exp``
    pass."""
    nodes = _nodes_of_edges(edge_bytes, pieces)
    ehw = np.divide(nodes.above, -kt)
    np.exp(ehw, out=ehw)
    ehw *= nodes.hw
    ehw.setflags(write=False)
    return ehw


class _Scratch(threading.local):
    """The rational's two buffers: allocated on a thread's first kernel
    call and reused by every later one (fresh megabyte buffers are
    page-faulted in on every call, which on a per-ion call costs more
    than the arithmetic)."""

    def __init__(self) -> None:
        self.num = np.empty(_SCRATCH_ELEMENTS)
        self.den = np.empty(_SCRATCH_ELEMENTS)


_SCRATCH = _Scratch()


def simpson_rrc(
    grid: EnergyGrid,
    pieces: int,
    gaunt: bool,
    energies: np.ndarray,
    first: np.ndarray,
    cutoffs: np.ndarray,
    c_l: np.ndarray,
    kts: np.ndarray,
) -> list[MegabatchResult]:
    """Window integrals of ``n >= 1`` levels at ``T`` temperatures.

    ``energies`` and ``first`` are per level (``first`` is the bin holding
    the level's edge, temperature-independent); ``cutoffs`` and ``c_l``
    are ``(T, n)``, ``kts`` is ``(T,)``.  Level ``l`` is integrated over
    bins ``first[l] <= b < cutoffs[j, l]`` from ``max(E_b, I_l)`` up.

    Returns one :class:`MegabatchResult` per temperature: ``n_pairs`` is
    the in-window (level, bin) pair count and ``n_passes`` the logical
    launches a device would issue — one for the edge bins, one for the
    shared node weights, one per memory-bounded chunk of full-bin pairs —
    not the host's blocks.
    """
    if _LEVEL_BLOCK * (pieces + 1) > _SCRATCH_ELEMENTS:
        raise ValueError(f"pieces={pieces} exceeds the kernel's scratch")
    results: list[MegabatchResult] = []
    for lo in range(0, len(kts), _TEMPERATURE_BLOCK):
        batch = slice(lo, lo + _TEMPERATURE_BLOCK)
        results += _temperature_block(
            grid, pieces, gaunt, energies, first, cutoffs[batch], c_l[batch], kts[batch]
        )
    return results


@np.errstate(under="ignore")
def _temperature_block(
    grid: EnergyGrid,
    pieces: int,
    gaunt: bool,
    energies: np.ndarray,
    first: np.ndarray,
    cutoffs: np.ndarray,
    c_l: np.ndarray,
    kts: np.ndarray,
) -> list[MegabatchResult]:
    """:func:`simpson_rrc` for at most ``_TEMPERATURE_BLOCK`` temperatures."""
    n_bins, n_pts, n_t = grid.n_bins, pieces + 1, len(kts)
    edge_bytes = grid.edges.tobytes()
    nodes = _nodes_of_edges(edge_bytes, pieces)
    out = [np.zeros(n_bins) for _ in range(n_t)]

    # --- edge bins: the one bin per level split by its recombination
    # edge is integrated from I_l up on level-specific nodes.  Which
    # levels have one depends on the grid alone.
    edge = np.flatnonzero(
        (first < n_bins) & (grid.lower[np.minimum(first, n_bins - 1)] < energies)
    )
    live_edge = cutoffs[:, edge] > first[edge]
    if edge.size:
        b_e = first[edge]
        i_e = energies[edge][:, None]
        width_e = grid.upper[b_e][:, None] - i_e
        above = width_e * unit_fractions(n_pts)[None, :]
        g_e = gaunt_factor((i_e + above) / i_e) if gaunt else 1.0
        w = simpson_weights(pieces)
        for j in range(n_t):
            y = np.exp(-above / kts[j]) * g_e
            vals = (width_e[:, 0] / pieces) * (y @ w) * c_l[j, edge]
            # Several levels can share one edge bin -> unbuffered scatter-add.
            np.add.at(out[j], b_e[live_edge[j]], vals[live_edge[j]])

    # --- full bins: shared nodes.  Temperature enters through the node
    # weights and one exp(-(E_b - I_l)/kT) per (level, bin) only.
    start = first.copy()
    start[edge] += 1
    order = np.flatnonzero(start < n_bins)
    order = order[np.argsort(start[order], kind="stable")]
    n_full = np.maximum(cutoffs - start, 0).sum(axis=1)
    ehw = [_node_weights(edge_bytes, pieces, float(kt)) for kt in kts]
    coef = c_l
    tile = max(1, _SCRATCH_ELEMENTS // (_LEVEL_BLOCK * n_pts))
    if gaunt:
        kappa = np.cbrt(energies)
        coef = c_l * ((_B / _E) * kappa)
        alpha, gamma = (_A / _B) * kappa, (_D / _E) * kappa * kappa
    else:
        base = [w_t.sum(axis=1) for w_t in ehw]
    starts, cuts = start.tolist(), cutoffs.tolist()
    for i in range(0, order.size, _LEVEL_BLOCK):
        rows = order[i : i + _LEVEL_BLOCK]
        levels = rows.tolist()
        hi_of = cutoffs[:, rows].max(axis=1).tolist()
        block_hi = max(hi_of)
        for t0 in range(starts[levels[0]], block_hi, tile):
            t1 = min(t0 + tile, block_hi)
            if gaunt:
                shape = (rows.size, t1 - t0, n_pts)
                g = _SCRATCH.num[: rows.size * (t1 - t0) * n_pts].reshape(shape)
                d = _SCRATCH.den[: g.size].reshape(shape)
                np.add(nodes.cbrt[None, t0:t1], alpha[rows][:, None, None], out=g)
                np.add(nodes.cbrt2[None, t0:t1], gamma[rows][:, None, None], out=d)
                g /= d
            # I_l - E_b, <= 0 in a window; the clamp keeps the block's
            # bins below a level's first (never read) from overflowing.
            depth = np.subtract.outer(energies[rows], grid.lower[t0:t1])
            np.minimum(depth, 0.0, out=depth)
            for j in range(n_t):
                hi = min(t1, hi_of[j])
                if hi <= t0:
                    continue
                pair = depth[:, : hi - t0] / kts[j]
                np.exp(pair, out=pair)
                pair *= coef[j, rows][:, None]
                if gaunt:
                    pair *= np.einsum("lbp,bp->lb", g[:, : hi - t0], ehw[j][t0:hi])
                else:
                    pair *= base[j][t0:hi]
                for k, l in enumerate(levels):
                    s, e = max(starts[l], t0), min(cuts[j][l], hi)
                    if e > s:
                        out[j][s:e] += pair[k, s - t0 : e - t0]

    results = []
    for j in range(n_t):
        n_edge = int(np.count_nonzero(live_edge[j]))
        n_passes = int(n_edge > 0)
        if n_full[j]:
            n_passes += 1 + (len(_chunks(int(n_full[j]), n_pts)) if gaunt else 0)
        results.append(
            MegabatchResult(out[j], n_passes, n_edge + int(n_full[j]), 0, 0)
        )
    return results
