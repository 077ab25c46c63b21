"""The one RRC kernel of every linear rule: the Gaunt rational expanded
about bin centres.

Every fixed-node evaluation of the collapsed Eq. (1) integrand
``f_l(E) = C_l exp(-(E - I_l)/kT) g(E / I_l)``, ``E >= I_l``, goes
through :func:`rule_rrc` — one ion's levels
(:func:`repro.physics.apec.ion_emissivity_batched`) or a whole plan's
(:meth:`repro.physics.plan.SpectrumPlan.execute_many`), dense
(``cutoff = n_bins``) or pruned, one temperature or a batch.

The rule — Simpson's pieces, Romberg's ``k`` dichotomies, ``n``-point
Gauss-Legendre — enters only as the node fractions and weights ``w_p`` of
:func:`repro.quadrature.batch.linear_rule`; Romberg's are its Richardson
tableau run on the trapezoid ladder's weight rows (it is linear in the
samples).  All are positive, which is what the bound below asks of them.

A bin not split by a recombination edge has the same nodes ``E_p`` for
every level.  With the node weights
``W[b, p] = exp(-(E_p - E_b)/kT) h_b w_p`` about the bin's lower edge
``E_b`` and :func:`repro.physics.rrc.gaunt_factor`'s rational written in
``u = cbrt(E)``, ``x = u^2``, ``k = cbrt(I_l)``, ``a_l = (A/B) k``,
``c_l = (D/E) k^2``, a (level, bin) integral is

    C_l (B/E) k exp(-(E_b - I_l)/kT) * S_lb,
    S_lb = sum_p W[b, p] (u_p + a_l) / (x_p + c_l).

The node sum is taken before any level is seen.  About a centre ``xbar``
of the bin, with ``eta_p = (xbar - x_p)/xbar``, ``r = 1/(xbar + c_l)``
and ``s = xbar r`` in (0, 1), ``1/(x_p + c_l) = r sum_m (eta_p s)^m`` and

    S_lb = r sum_{m<M} (nu_m[b] + a_l mu_m[b]) s^m,
    mu_m[b] = sum_p W[b, p] eta_p^m,    nu_m[b] = sum_p W[b, p] u_p eta_p^m.

``|eta_p s| < rho = max |eta|``: the dropped orders are at most
``rho^M (1 + rho)/(1 - rho)`` of a pair, and the kept ones sum to at most
``(1 + rho)/(1 - rho)`` pairs (every ``W`` is positive), so nothing
cancels.  What is shared, and across what:

- **across levels** — ``mu`` and ``nu``, two ``(M, n_bins)`` tables per
  temperature built by recurrence from the node weights.  A pair costs
  one ``exp`` and one Horner chain over both, about ``4 M + 10`` element
  operations where the node-by-node rule spends 5 a node;
- **across calls** — the tables are memoized per ``(edges, rule, kT)``
  in :data:`_MEMO_BYTES` per grid: the ions of a grid point arrive as
  separate per-ion calls, interleaved with those of every other rank;
- **across temperatures** — ``r`` and ``s`` depend on grid and level
  alone and are evaluated once per level block for a whole batch.

Centres and ``M`` follow from edges and rule alone (:class:`_Expansion`).
A bin's nodes form 1, 2, 4, ... contiguous cells down to one per node,
each centred midway between its extreme ``x``; of the splits with
``rho <= _RHO_MAX`` the one minimizing ``cells * M``,
``M = ceil(ln _TRUNCATION / ln rho)``, is taken and a pair's cells are
summed after the Horner pass.  Simpson-64 on the 400-bin benchmark grid
gets one centre per bin and ``M = 7`` (``rho`` = 0.0029), on 4000 linear
bins over 0.05-8 keV ``M = 10``.  At one cell per node ``eta = 0``,
``M = 1`` and the sum *is* the node-by-node rule, so any grid and rule
take this one path; without the Gaunt factor ``S_lb = mu_0[b]``.

Both exponents are <= 0 inside a window, so nothing can overflow at any
``kT``: the kernel needs no temperature guard and has no fallback.
Levels are walked in a fixed order (ascending first full bin), in blocks
that only bound the temporaries: a block's pairs outside their level's
window are +0.0 and one reduction folds it onto the spectrum row after
row, the level-by-level sum bit for bit (every term is >= 0).  Every
other operation is element-wise or reduces a pair's own cells.  Order
and arithmetic depend on the grid and the levels only — never on which
temperatures share a batch — so a batch's row ``j`` is bit-identical to
evaluating temperature ``j`` alone.

A bin's value is a left fold over levels that no other bin reads, so a
call may also compute any contiguous run of bins (``bins``) and the runs
of a cut joined are the whole call, bit for bit, given three invariants:

1. levels are ordered by their **unclipped** first full bin and only
   then clipped to the run, so every bin sees the same levels in the
   same order;
2. moment-table columns are cut from the memoized whole-grid
   ``moments(kT)``;
3. edge-bin values come from **one** ``y @ w`` GEMV over every edge
   level, of which the run keeps its own rows: BLAS rounds a row
   differently with different rows beside it.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, log

import numpy as np

from repro.physics.rrc import gaunt_factor
from repro.physics.spectrum import EnergyGrid
from repro.quadrature.batch import _chunks, linear_rule
from repro.quadrature.megabatch import MegabatchResult

__all__ = ["rule_rrc"]

#: Temperatures sharing one evaluation of a level block's ``r`` and
#: ``s``; bounds the moment tables one call keeps alive.
_TEMPERATURE_BLOCK = 8

#: float64 elements per temporary of the level loop (128 KiB each, four
#: a call): a block takes as many levels as fit.  The largest size that
#: keeps a call's traced peak under 1 MiB (docs/ARCHITECTURE.md section 8).
_BLOCK_ELEMENTS = 1 << 14

#: Relative truncation of the expansion: below one rounding.
_TRUNCATION = 1.0e-17

#: Largest ``rho`` expanded about one centre: bounds the amplification
#: ``(1 + rho)/(1 - rho)`` at 3, and is where two cells start to beat
#: one on the clock (docs/ARCHITECTURE.md section 8).
_RHO_MAX = 0.5

#: Bytes of moment tables memoized per grid, never fewer than one
#: temperature: 70 on the 400-bin benchmark grid (44 KiB each).
_MEMO_BYTES = 3 << 20

#: Simpson pieces, Romberg ``2**k`` or Gauss points from which a rule is
#: refused (input validation): ``n_bins x nodes`` tables are not chunked.
_MAX_NODES = 1 << 14

# gaunt_factor's rational, g = (A + B c) / (D + E c^2) with c = cbrt(x).
_B, _E = 0.1728, 0.0496
_A, _D = 1.0 - _B, 1.0 - _E


class _Expansion:
    """Temperature-independent state of one ``(grid, rule)``, shared by
    every plan and per-ion call on the same edges.

    ``above``, ``u``, ``eta`` and ``hw`` are ``(n_bins, nodes)``: a
    node's offset above its bin's lower edge, ``cbrt`` of its energy,
    ``(xbar - x)/xbar`` about its cell's centre, bin width times the
    rule's weight.  ``xbar`` is ``(n_bins * cells,)``, ``splits`` the first
    node of each cell, ``order`` the ``M`` of the module docstring.
    """

    def __init__(self, edges: np.ndarray, rule: tuple[str, int]) -> None:
        frac, weights, norm = linear_rule(*rule)
        n_pts = frac.size
        widths = np.diff(edges)
        self.above = widths[:, None] * frac[None, :]
        self.u = np.cbrt(edges[:-1, None] + self.above)
        self.hw = (widths / norm)[:, None] * weights[None, :]
        x = self.u * self.u
        # 1, 2, 4, ... cells per bin down to one per node (rho = 0): of the
        # admissible splits, the cheapest (a pair costs ~ cells * order).
        cost = None
        for cells in sorted({min(1 << i, n_pts) for i in range(n_pts.bit_length() + 1)}):
            splits = np.arange(cells) * n_pts // cells
            ends = np.append(splits[1:], n_pts)
            lo, hi = x[:, splits], x[:, ends - 1]
            rho = float(((hi - lo) / (hi + lo)).max())
            order = ceil(log(_TRUNCATION) / log(rho)) if rho else 1
            if rho <= _RHO_MAX and (cost is None or cells * order < cost):
                cost = cells * order
                self.cells, self.order, self.splits = cells, order, splits
                xbar = 0.5 * (lo + hi)
                at_node = np.repeat(xbar, ends - splits, axis=1)
                self.eta, self.xbar = (at_node - x) / at_node, xbar.ravel()
        table_bytes = 2 * self.order * self.xbar.size * 8
        self.moments = lru_cache(max(1, _MEMO_BYTES // table_bytes))(self._moments)

    @np.errstate(under="ignore")
    def _moments(self, kt: float) -> np.ndarray:
        """``(mu, nu)`` stacked ``(2, M, n_bins * cells)``: everything
        temperature contributes per node, summed over each cell."""
        v = np.divide(self.above, -kt)
        np.exp(v, out=v)
        v *= self.hw
        vu = np.empty_like(v)
        out = np.empty((2, self.order, self.xbar.size))
        for m in range(self.order):
            if m:
                v *= self.eta
            np.multiply(v, self.u, out=vu)
            out[0, m] = np.add.reduceat(v, self.splits, axis=1).ravel()
            out[1, m] = np.add.reduceat(vu, self.splits, axis=1).ravel()
        out.setflags(write=False)
        return out


@lru_cache(maxsize=8)
def _expansion_of_edges(edge_bytes: bytes, rule: tuple[str, int]) -> _Expansion:
    return _Expansion(np.frombuffer(edge_bytes, dtype=np.float64), rule)


@np.errstate(under="ignore")
def rule_rrc(
    grid: EnergyGrid,
    rule: tuple[str, int],
    gaunt: bool,
    energies: np.ndarray,
    first: np.ndarray,
    cutoffs: np.ndarray,
    c_l: np.ndarray,
    kts: np.ndarray,
    bins: range | None = None,
) -> list[MegabatchResult]:
    """Window integrals of ``n >= 1`` levels at ``T`` temperatures by
    ``linear_rule(*rule)``.

    ``energies`` and ``first`` are per level (``first`` is the bin holding
    the level's edge, temperature-independent); ``cutoffs`` and ``c_l``
    are ``(T, n)``, ``kts`` is ``(T,)``.  Level ``l`` is integrated over
    bins ``first[l] <= b < cutoffs[j, l]`` from ``max(E_b, I_l)`` up.

    Returns one :class:`MegabatchResult` per temperature, its values on
    ``bins`` (a contiguous ``range``; every bin by default): ``n_pairs``
    is the in-window (level, bin) pair count and ``n_passes`` the logical
    launches a device would issue — one for the edge bins, one for the
    shared node weights, one per memory-bounded chunk of full-bin pairs —
    not the host's blocks.  Both count the whole windows whatever
    ``bins`` keeps, so a cut call's statistics are any one run's.
    """
    limit = _MAX_NODES.bit_length() - 1 if rule[0] == "romberg" else _MAX_NODES
    if rule[1] >= limit:
        raise ValueError(f"rule {rule} exceeds the kernel's {_MAX_NODES} nodes")
    if len(kts) > _TEMPERATURE_BLOCK:
        return [
            result
            for i in range(0, len(kts), _TEMPERATURE_BLOCK)
            for result in rule_rrc(
                grid, rule, gaunt, energies, first,
                *(arr[i : i + _TEMPERATURE_BLOCK] for arr in (cutoffs, c_l, kts)),
                bins,
            )
        ]
    frac, w, norm = linear_rule(*rule)
    n_bins, n_t = grid.n_bins, len(kts)
    b0, b1 = (0, n_bins) if bins is None else (bins.start, bins.stop)
    out = [np.zeros(n_bins) for _ in range(n_t)]

    # The one bin per level split by its recombination edge (which
    # levels have one depends on the grid alone) and the full bins above.
    edge = np.flatnonzero(
        (first < n_bins) & (grid.lower[np.minimum(first, n_bins - 1)] < energies)
    )
    live_edge = cutoffs[:, edge] > first[edge]
    start = first.copy()
    start[edge] += 1
    n_edge = np.count_nonzero(live_edge, axis=1).tolist()
    n_full = np.maximum(cutoffs - start, 0).sum(axis=1).tolist()
    results = []  # values: views of the spectra the passes below fill
    for j in range(n_t):
        n_passes = int(n_edge[j] > 0)
        if n_full[j]:
            n_passes += 1 + (len(_chunks(n_full[j], frac.size)) if gaunt else 0)
        results.append(MegabatchResult(out[j][b0:b1], n_passes, n_edge[j] + n_full[j], 0, 0))
    if b1 <= b0:
        return results

    # --- edge bins: integrated from I_l up on level-specific nodes.
    b_e = first[edge]
    kept = (b0 <= b_e) & (b_e < b1)
    if kept.any():
        i_e = energies[edge][:, None]
        width_e = grid.upper[b_e][:, None] - i_e
        above = width_e * frac[None, :]
        g_e = gaunt_factor((i_e + above) / i_e) if gaunt else 1.0
        for j in range(n_t):
            y = np.exp(-above / kts[j]) * g_e
            vals = (width_e[:, 0] / norm) * (y @ w) * c_l[j, edge]
            # Several levels can share one edge bin -> unbuffered scatter-add.
            live = live_edge[j] & kept
            np.add.at(out[j], b_e[live], vals[live])
        del above, g_e, y  # their room goes to the level loop's temporaries

    # --- full bins: temperature enters via the moment tables and one exp a pair.
    order = np.flatnonzero(start < n_bins)
    order = order[np.argsort(start[order], kind="stable")]
    # Sorted unclipped, then clipped to the run: the order of every bin.
    order = order[(start[order] < b1) & (cutoffs[:, order].max(axis=0) > b0)]
    exp = _expansion_of_edges(grid.edges.tobytes(), rule)
    cells = exp.cells
    tables = [exp.moments(float(kt)) for kt in kts]
    kappa = np.cbrt(energies)
    coef = c_l * ((_B / _E) * kappa) if gaunt else c_l
    alpha, gamma = (_A / _B) * kappa, (_D / _E) * kappa * kappa
    clipped = np.minimum(cutoffs, b1)
    per_block = max(1, _BLOCK_ELEMENTS // ((b1 - b0) * cells))
    # (r, s) and the (mu, nu) chain, each pair adjacent; the nu half then holds the pairs.
    temps = np.empty((2 if gaunt else 1, 2 * per_block * (b1 - b0) * cells))
    for i in range(0, order.size, per_block):
        rows = order[i : i + per_block]
        lo = max(int(start[rows[0]]), b0)
        hi_of = clipped[:, rows].max(axis=1).tolist()
        hi = max(hi_of)
        if hi <= lo:
            continue
        if gaunt:
            xbar = exp.xbar[lo * cells : hi * cells]
            r, s = temps[0, : 2 * rows.size * xbar.size].reshape(2, rows.size, -1)
            np.add.outer(gamma[rows], xbar, out=r)
            np.reciprocal(r, out=r)
            np.multiply(r, xbar, out=s)
        for j in range(n_t):
            n = hi_of[j] - lo
            if n <= 0:
                continue
            tab = tables[j][:, :, lo * cells : hi_of[j] * cells]
            k = rows.size * n
            if gaunt:
                acc = temps[-1, : 2 * k * cells].reshape(2, rows.size, -1)
                acc[...] = tab[:, -1, None]
                for m in range(exp.order - 2, -1, -1):
                    acc *= s[:, : n * cells]
                    acc += tab[:, m, None]
                g = np.multiply(acc[0], alpha[rows][:, None], out=acc[0])
                g += acc[1]
                g *= r[:, : n * cells]
            else:
                g = tab[0, 0]
            if cells > 1:
                g = g.reshape(-1, n, cells).sum(axis=2)
            pair = temps[-1, k * cells : k * (cells + 1)].reshape(rows.size, n)
            np.subtract.outer(energies[rows], grid.lower[lo : lo + n], out=pair)
            pair /= kts[j]
            if start[rows[-1]] > lo or clipped[j, rows].min() < hi_of[j]:
                b = np.arange(lo, lo + n)  # off a window: exponent -inf (I_l > E_b overflows)
                pair[(start[rows, None] > b) | (clipped[j, rows, None] <= b)] = -np.inf
            np.exp(pair, out=pair)
            pair *= coef[j, rows][:, None]
            pair *= g
            dest = out[j][lo : lo + n]  # the fold: onto the spectrum, row after row
            pair[0] += dest
            if n > 1:
                np.add.reduce(pair, axis=0, out=dest)
            else:  # add.reduce would sum a lone column pairwise
                dest[0] = np.add.accumulate(pair[:, 0])[-1]
    return results
