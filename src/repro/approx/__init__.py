"""Approximate serving: log-T spectrum lattices with certified error.

The service's answer to a continuous temperature axis defeating exact
content-address caching: precompute spectra on a refinable log-spaced
temperature lattice (:mod:`repro.approx.lattice`), interpolate in
log-log space with a measured per-interval error certificate
(:mod:`repro.approx.interp`), and serve any request whose declared
``accuracy`` budget the certificate satisfies from the lattice in O(1)
(:mod:`repro.approx.store`).  Requests the lattice cannot certify fall
back to the exact path — accuracy is a contract, never a hope.
"""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.approx.interp": ("INTERP_METHODS", "interpolate_loglog", "peak_rel_error"),
    "repro.approx.lattice": (
        "ExactFn", "ExactManyFn", "LatticeSpec", "SpectrumLattice", "plan_exact_fn",
    ),
    "repro.approx.store": ("LatticeResult", "LatticeStats", "LatticeStore", "RequestEvaluator"),
})
