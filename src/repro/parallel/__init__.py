"""Real parallelism: the plan's ranks.

Everything else in the reproduction measures *simulated* time on the
event clock; this package is about *real* time — running the grid
points of ``SpectrumPlan.execute_many`` on forked rank processes
(:mod:`repro.parallel.ranks`, imported by the plan, not here), sized by
the CPUs the process may use (:mod:`repro.parallel.executor`).
"""

from repro.parallel.executor import usable_cpus

__all__ = ["usable_cpus"]
