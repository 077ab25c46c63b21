"""Non-Equilibrium Ionization — the paper's adaptability study (Table II).

Eq. (4) is, per element, a stiff tridiagonal linear ODE system in the ion
number densities, with coefficients set by the temperature/density history
of the tracer.  This package provides:

- :mod:`repro.nei.odes` — the NEI system (matrix, RHS, Jacobian, exact
  matrix-exponential reference for constant conditions);
- :mod:`repro.nei.solvers` — an LSODA-style solver: Adams-Bashforth-
  Moulton for non-stiff stretches, BDF with Newton for stiff ones,
  automatic switching between them;
- :mod:`repro.nei.equilibrium` — CIE start states and relaxation checks;
- :mod:`repro.nei.runner` — the hybrid NEI workload: ten evolutions
  packed per task (the paper's packing), priced for the event simulation
  and optionally executing real solves.
"""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.nei.odes": ("NEISystem", "nei_matrix"),
    "repro.nei.solvers": (
        "AutoSwitchSolver", "ODESolveResult", "SolverStats", "backward_euler",
        "exact_linear_solution",
    ),
    "repro.nei.equilibrium": ("equilibrium_state", "relaxation_time_scale"),
    "repro.nei.runner": ("NEIWorkloadSpec", "build_nei_tasks"),
})
