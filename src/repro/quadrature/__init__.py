"""Numerical integration substrate.

The paper's CPU path uses QUADPACK's QAGS routine as the accurate serial
integrator, while the GPU path runs composite Simpson (default) or Romberg
kernels over many energy bins at once.  This package provides all of them,
implemented from scratch:

- :mod:`repro.quadrature.simpson` — composite Simpson rule (Algorithm 2's
  per-region method).
- :mod:`repro.quadrature.romberg` — scalar Romberg integration with the
  dichotomy recurrence of Eq. (3): the reference ``batch_romberg`` is held to.
- :mod:`repro.quadrature.gauss_legendre` — Gauss-Legendre nodes (the plan's
  Gauss rule) and the scalar rule on them that tests hold that rule to.
- :mod:`repro.quadrature.gauss_kronrod` — Gauss–Kronrod 10–21 point pair.
- :mod:`repro.quadrature.qags` — adaptive quadrature with interval bisection
  and Wynn epsilon-algorithm extrapolation (the QAGS role).
- :mod:`repro.quadrature.batch` — vectorized batch integrators (the "GPU
  kernels" that evaluate tens of thousands of bins in one call) and
  ``linear_rule``, the Simpson / Romberg / Gauss weights the plan runs.
- :mod:`repro.quadrature.megabatch` — the generic pair-by-pair window
  driver: the reference the production RRC kernel is checked against.
"""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.quadrature.result": ("IntegrationResult",),
    "repro.quadrature.romberg": ("romberg_table",),
    "repro.quadrature.gauss_kronrod": ("gauss_kronrod_21", "GK21_NODES"),
    "repro.quadrature.batch": ("batch_simpson", "batch_simpson_edges", "batch_romberg"),
    "repro.quadrature.gauss_legendre": ("gauss_legendre_nodes",),
})
