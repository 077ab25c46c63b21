"""Composite Simpson rule — the paper's default GPU integration method.

Algorithm 2 of the paper assigns each GPU thread several integral regions
and applies "the classical Simpson method" inside each region.  The serial
form here is the reference implementation that the batched kernel in
:mod:`repro.quadrature.batch` must agree with bit-for-bit (same evaluation
points, same summation order per bin).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.quadrature.result import IntegrationResult

__all__ = ["simpson", "DEFAULT_PIECES"]

#: The paper: "the Simpson algorithm can provide enough accuracy just by
#: dividing the integral range into 64 equal pieces".
DEFAULT_PIECES: int = 64


def simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    pieces: int = DEFAULT_PIECES,
) -> IntegrationResult:
    """Integrate ``f`` over ``[a, b]`` with the composite Simpson rule.

    Parameters
    ----------
    f:
        Vectorized integrand: accepts a 1-D array of abscissae and returns
        the values at those points.
    a, b:
        Integration limits; ``b`` may be below ``a`` (the sign flips).
    pieces:
        Number of equal subintervals; must be a positive even integer
        because Simpson panels pair subintervals.

    Returns
    -------
    IntegrationResult
        ``abserr`` is a cheap estimate from comparing against the
        half-resolution rule (Richardson difference / 15).
    """
    _check_pieces(pieces)
    if a == b:
        return IntegrationResult(value=0.0, abserr=0.0, neval=0)

    x = np.linspace(a, b, pieces + 1)
    y = np.asarray(f(x), dtype=np.float64)
    if y.shape != x.shape:
        raise ValueError(
            f"integrand returned shape {y.shape}, expected {x.shape}"
        )
    h = (b - a) / pieces
    fine = _simpson_sum(y, h)
    # Half-resolution estimate reuses every other sample; the classical
    # error model says err(fine) ~ |fine - coarse| / 15 for smooth f.
    coarse = _simpson_sum(y[::2], 2.0 * h)
    abserr = abs(fine - coarse) / 15.0
    return IntegrationResult(value=fine, abserr=abserr, neval=x.size)


def _simpson_sum(y: np.ndarray, h: float) -> float:
    """Raw composite Simpson weighted sum: h/3 * (1,4,2,4,...,4,1) . y."""
    return (h / 3.0) * (
        y[0]
        + y[-1]
        + 4.0 * float(np.sum(y[1:-1:2]))
        + 2.0 * float(np.sum(y[2:-1:2]))
    )


def _check_pieces(pieces: int) -> None:
    if not isinstance(pieces, (int, np.integer)):
        raise TypeError(f"pieces must be an integer, got {type(pieces)!r}")
    if pieces < 2 or pieces % 2 != 0:
        raise ValueError(f"pieces must be a positive even integer, got {pieces}")
