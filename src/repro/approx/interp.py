"""Log-log spectral interpolation kernels and the error metric.

The lattice tier stores spectra at log-spaced temperatures and serves
intermediate temperatures by interpolating each bin's flux along the
``u = ln kT`` axis.  Fluxes span many orders of magnitude and are close
to exponential in ``1/kT``, so the natural variable pair is
``(ln kT, ln flux)`` — log-log interpolation linearizes the dominant
``exp(-E/kT)`` behaviour and keeps the per-interval curvature (and with
it the interpolation error) small.

Bins can hold *exactly* zero flux (a bin entirely above every modelled
edge), where the log transform is undefined.  Rather than flooring into
a fake epsilon, each bin picks its transform from its own stencil: bins
whose stencil values are all positive interpolate in log flux, the rest
fall back to linear flux (which reproduces exact zeros exactly).

Interpolation is *derive*, then *evaluate*: what an interval's stencil
determines (mask, transformed endpoints, Hermite slopes) is an
:class:`IntervalTable`; :func:`interpolate_loglog` derives one and
evaluates it once, a lattice keeps it and evaluates it per hit.

Errors are measured **peak-relative**: ``max |approx - exact|`` over
bins divided by the exact spectrum's peak.  Per-bin relative error is
meaningless in the far tail (fluxes underflow toward 0 where even a
perfect method has huge relative noise); peak-normalized error is the
metric the repo's fused-kernel gates already use
(``fused_max_rel_err`` in :mod:`repro.bench.harness`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "INTERP_METHODS",
    "IntervalTable",
    "eval_table",
    "interpolate_loglog",
    "interval_table",
    "peak_rel_error",
]

#: Supported interpolation methods along the log-T axis.
INTERP_METHODS = ("linear", "cubic")

#: Peak floor guarding the relative-error division for all-zero spectra.
_TINY_PEAK = 1.0e-300


def peak_rel_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Peak-relative error: ``max |approx - exact| / max |exact|``."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    peak = max(float(np.max(np.abs(exact))), _TINY_PEAK)
    return float(np.max(np.abs(approx - exact)) / peak)


def _hermite_slopes(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-node derivative estimates dv/du on a non-uniform grid.

    Interior nodes use the h-weighted three-point formula (exact for
    quadratics); the end nodes use one-sided secants.  ``u`` is (n,)
    ascending, ``v`` is (n, bins); returns (n, bins).
    """
    n = u.size
    dv = np.diff(v, axis=0)
    h = np.diff(u)[:, None]
    sec = dv / h
    m = np.empty_like(v)
    m[0] = sec[0]
    m[-1] = sec[-1]
    if n > 2:
        h0 = h[:-1]
        h1 = h[1:]
        m[1:-1] = (h1 * sec[:-1] + h0 * sec[1:]) / (h0 + h1)
    return m


class IntervalTable(NamedTuple):
    """What every hit inside one interval shares: derived once
    (:func:`interval_table`), evaluated per hit (:func:`eval_table`)."""

    u0: float
    h: float
    #: Bins safe for the log transform: every stencil value positive.
    log_ok: np.ndarray
    #: Rows ``(v0, v1)`` (cubic: plus Hermite slopes ``m0, m1``) in ``ln
    #: flux`` over the ``log_ok`` bins, in raw flux over the rest, or ``()``.
    logged: tuple
    raw: tuple

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.log_ok, *self.logged, *self.raw))


def _rows(u_stencil: np.ndarray, vals: np.ndarray, a: int, method: str):
    """Interval ``a``'s endpoint values and (cubic) slopes, as copies —
    a row view would keep its whole block alive, uncounted."""
    picked = [vals[a], vals[a + 1]]
    if method == "cubic":
        m = _hermite_slopes(u_stencil, vals)
        picked += [m[a], m[a + 1]]
    return tuple(row.copy() for row in picked)


def interval_table(
    u_stencil: np.ndarray, v_stencil: np.ndarray, a: int, method: str
) -> IntervalTable:
    """Derive the table of interval ``[u_stencil[a], u_stencil[a + 1]]``
    from the nodes the method reads there: its two, plus (cubic) one to
    each side where the lattice has one."""
    ok = np.all(v_stencil > 0.0, axis=0)
    logged = np.log(v_stencil[:, ok])
    return IntervalTable(
        float(u_stencil[a]),
        float(u_stencil[a + 1] - u_stencil[a]),
        ok,
        _rows(u_stencil, logged, a, method) if ok.any() else (),
        () if ok.all() else _rows(u_stencil, v_stencil[:, ~ok], a, method),
    )


def _eval_rows(rows: tuple, t: float, h: float) -> np.ndarray:
    """One row tuple at interval coordinate ``t`` (vectorized per bin)."""
    if len(rows) == 2:
        v0, v1 = rows
        return (1.0 - t) * v0 + t * v1
    v0, v1, m0, m1 = rows
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + t
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return h00 * v0 + h10 * h * m0 + h01 * v1 + h11 * h * m1


def eval_table(table: IntervalTable, u: float) -> np.ndarray:
    """The interpolated spectrum at ``u`` inside the table's interval."""
    u0, h, log_ok, logged, raw = table
    t = (u - u0) / h
    if not raw:
        return np.exp(_eval_rows(logged, t, h))
    out = np.empty(log_ok.size)
    out[~log_ok] = _eval_rows(raw, t, h)
    if logged:
        out[log_ok] = np.exp(_eval_rows(logged, t, h))
    return out


def interpolate_loglog(
    u_nodes: np.ndarray,
    values: np.ndarray,
    u: float,
    method: str = "linear",
) -> np.ndarray:
    """Interpolate node spectra to one abscissa ``u`` (``= ln kT``).

    ``u_nodes`` is a (n,) strictly-ascending array, ``values`` the
    matching (n, bins) node spectra.  ``u`` must lie inside
    ``[u_nodes[0], u_nodes[-1]]``.  ``method`` is ``"linear"`` (2-node
    stencil) or ``"cubic"`` (4-node Hermite stencil, clamped at the
    boundary).  Each bin interpolates ``ln flux`` when its whole stencil
    is positive and raw flux otherwise; a ``u`` exactly on a node
    returns that node's spectrum bit for bit.
    """
    u_nodes = np.asarray(u_nodes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if method not in INTERP_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {INTERP_METHODS}"
        )
    n = u_nodes.size
    if n < 2:
        raise ValueError("need at least two lattice nodes")
    if not u_nodes[0] <= u <= u_nodes[-1]:
        raise ValueError(
            f"u={u} outside the lattice domain "
            f"[{u_nodes[0]}, {u_nodes[-1]}]"
        )
    # Node coincidence: serve the stored spectrum exactly.
    j = int(np.searchsorted(u_nodes, u))
    if j < n and u_nodes[j] == u:
        return values[j].copy()
    i = j - 1  # containing interval [u_i, u_{i+1}]
    reach = 1 if method == "cubic" else 0
    lo, hi = max(0, i - reach), i + 2 + reach
    table = interval_table(u_nodes[lo:hi], values[lo:hi], i - lo, method)
    return eval_table(table, u)
