"""Fixed-order Gauss-Legendre nodes and the scalar rule on them.

A third GPU-kernel candidate besides Simpson and Romberg: for the same
evaluation count an n-point Gauss rule is exact to degree 2n-1 (Simpson
with n points only to ~3), so it reaches the RRC accuracy target with
fewer evaluations per bin — at the price of nodes that cannot be reused
between refinement levels.  The pluggable-integrator design of the
paper's implementation ("different numerical integration algorithms can
be connected to the main program on demand") is what this module
exercises: :func:`repro.quadrature.batch.linear_rule` builds the plan's
Gauss rule from :func:`gauss_legendre_nodes`, and the scalar
:func:`gauss_legendre` is the reference the tests hold that rule to.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.quadrature.result import IntegrationResult

__all__ = ["gauss_legendre_nodes", "gauss_legendre"]


@lru_cache(maxsize=64)
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    n: int = 8,
) -> IntegrationResult:
    """Integrate ``f`` over ``[a, b]`` with the n-point Gauss rule.

    The error estimate compares against the (n//2)-point rule — crude but
    honest for smooth integrands (the fixed-rule analogue of the
    Gauss-Kronrod difference).
    """
    if a == b:
        return IntegrationResult(value=0.0, abserr=0.0, neval=0)
    x, w = gauss_legendre_nodes(n)
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    y = np.asarray(f(center + half * x), dtype=np.float64)
    if y.shape != x.shape:
        raise ValueError(f"integrand returned shape {y.shape}, expected {x.shape}")
    value = half * float(w @ y)
    neval = n
    if n >= 2:
        x2, w2 = gauss_legendre_nodes(max(1, n // 2))
        y2 = np.asarray(f(center + half * x2), dtype=np.float64)
        coarse = half * float(w2 @ y2)
        neval += x2.size
        abserr = abs(value - coarse)
    else:
        abserr = abs(value)
    return IntegrationResult(value=value, abserr=abserr, neval=neval)

