"""Real parallelism: the plan's ranks.

Everything else in the reproduction measures *simulated* time on the
event clock; this package is about *real* time — running a
``SpectrumPlan`` call's grid points, or one point's bins, on forked rank
processes sized by the CPUs the process may use
(:mod:`repro.parallel.ranks`).
"""

from repro.parallel.ranks import usable_cpus

__all__ = ["usable_cpus"]
