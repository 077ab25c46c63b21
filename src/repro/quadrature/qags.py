"""Adaptive quadrature with extrapolation — the QAGS role.

This is the accurate *serial CPU* integrator of the paper: when every GPU
queue is at full load, Algorithm 1 falls back to ``CPU-Integr`` which calls
"the traditional QAGS routine serially".  The implementation follows the
QUADPACK design: globally adaptive bisection driven by Gauss–Kronrod 10–21
error estimates, plus Wynn's epsilon algorithm to extrapolate the sequence
of global estimates when plain bisection converges slowly.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.quadrature.gauss_kronrod import gauss_kronrod_21
from repro.quadrature.result import ErrorBudget, IntegrationResult

__all__ = ["qags", "wynn_epsilon"]


def wynn_epsilon(seq: np.ndarray) -> tuple[float, float]:
    """Wynn epsilon-algorithm extrapolation of a convergent sequence.

    Returns ``(limit, err)`` where ``err`` is the magnitude of the last
    correction — the standard heuristic error of the epsilon table.  The
    sequence must have at least three terms.
    """
    s = np.asarray(seq, dtype=np.float64)
    if s.size < 3:
        raise ValueError("need at least 3 terms for epsilon extrapolation")
    # Two rolling columns of the epsilon table: prev = eps_{k-1}, cur = eps_k.
    prev = np.zeros(s.size + 1)  # epsilon_{-1} column (all zeros)
    cur = s.copy()  # epsilon_0 column
    best = float(cur[-1])
    best_err = abs(float(cur[-1] - cur[-2]))
    last_even = best
    for k in range(1, s.size):
        diffs = cur[1:] - cur[:-1]
        if np.all(diffs == 0.0):
            # Sequence already converged exactly at column k-1.
            return float(cur[-1]), 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = prev[1 : cur.size] + 1.0 / diffs
        if not np.all(np.isfinite(nxt)):
            break
        prev, cur = cur, nxt
        if k % 2 == 0:
            # Even columns eps_{2m} approximate the limit; odd columns are
            # auxiliary (they hold reciprocal differences).
            cand = float(cur[-1])
            err = abs(cand - last_even)
            last_even = cand
            if err <= best_err:
                best, best_err = cand, err
        if cur.size < 2:
            break
    return best, best_err


def qags(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    epsabs: float = 1.0e-10,
    epsrel: float = 1.0e-8,
    limit: int = 200,
) -> IntegrationResult:
    """Adaptively integrate ``f`` over the finite interval ``[a, b]``.

    Parameters
    ----------
    f:
        Vectorized integrand.
    epsabs, epsrel:
        Absolute / relative tolerance; convergence when either is met.
    limit:
        Maximum number of subintervals.

    Notes
    -----
    The result never silently degrades: ``converged`` is False when the
    subdivision limit was hit before reaching tolerance; callers that
    need a hard guarantee check it.
    """
    budget = ErrorBudget(epsabs=epsabs, epsrel=epsrel)
    if a == b:
        return IntegrationResult(value=0.0, abserr=0.0, neval=0)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    value, err, _ = gauss_kronrod_21(f, a, b)
    neval = 21
    if budget.satisfied(value, err):
        return IntegrationResult(
            value=sign * value, abserr=err, neval=neval, subdivisions=1
        )

    # Max-heap of intervals keyed by -error (heapq is a min-heap).  The
    # tie-break counter keeps comparisons away from float payloads.
    counter = 0
    heap: list[tuple[float, int, float, float, float, float]] = [
        (-err, counter, a, b, value, err)
    ]
    total_value, total_err = value, err
    history = [total_value]
    extrapolated = False

    for _ in range(limit - 1):
        if budget.satisfied(total_value, total_err):
            break
        neg_err, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, _ = gauss_kronrod_21(f, lo, mid)
        v2, e2, _ = gauss_kronrod_21(f, mid, hi)
        neval += 42
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        total_value += (v1 + v2) - v_old
        total_err += (e1 + e2) - e_old
        # Re-derive the error sum periodically; the incremental update can
        # drift after many cancellations.
        if counter % 64 == 0:
            total_err = sum(item[5] for item in heap)
        history.append(total_value)

    converged = budget.satisfied(total_value, total_err)
    value_out, err_out = total_value, total_err

    if not converged and len(history) >= 3:
        # QAGS-style rescue: extrapolate the sequence of global estimates.
        limit_est, eps_err = wynn_epsilon(np.array(history[-min(len(history), 12) :]))
        if eps_err < total_err:
            value_out, err_out = limit_est, max(eps_err, 0.0)
            extrapolated = True
            converged = budget.satisfied(value_out, err_out)

    return IntegrationResult(
        value=sign * value_out,
        abserr=err_out,
        neval=neval,
        converged=converged,
        subdivisions=len(heap),
        extrapolated=extrapolated,
    )
