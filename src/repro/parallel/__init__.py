"""Real parallelism: the plan's ranks.

Everything else measures *simulated* time on the event clock; this
package is about *real* time: a ``SpectrumPlan`` call's grid points, or
one point's bins, run on forked rank processes sized by the CPUs the
process may use (:mod:`repro.parallel.ranks`).
"""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {"repro.parallel.ranks": ("usable_cpus",)})
