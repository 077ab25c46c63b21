"""The NEI ODE system of Eq. (4).

For one element Z the ion fractions n_i (charge i = 0..Z) obey

    dn_i/dt = N_e [ n_{i+1} alpha_{i+1} + n_{i-1} S_{i-1}
                    - n_i (alpha_i + S_i) ]

with alpha_i the recombination rate of charge i (i -> i-1, alpha_0 = 0)
and S_i the ionization rate (i -> i+1, S_Z = 0).  For fixed temperature
and density this is a *linear* constant-coefficient system y' = A y whose
columns sum to zero (particle conservation), so an exact solution exists
via the matrix exponential — the reference our LSODA-style solver is
validated against.

Stiffness: rate coefficients span many decades across a charge ladder, so
eigenvalues of A do too; that spread (not the system size) is what makes
NEI expensive, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.atomic.rates import ionization_rate, recombination_rate

__all__ = ["nei_matrix", "NEISystem"]


def nei_matrix(z: int, temperature_k: float, ne_cm3: float) -> np.ndarray:
    """The (Z+1)x(Z+1) rate matrix A of y' = A y at fixed conditions."""
    if z < 1:
        raise ValueError("z must be >= 1")
    if temperature_k <= 0.0 or ne_cm3 < 0.0:
        raise ValueError("need positive temperature, non-negative density")
    t = np.array([temperature_k])
    s = np.zeros(z + 1)  # S_i: ionization out of charge i (S_Z = 0)
    a = np.zeros(z + 1)  # alpha_i: recombination out of charge i (alpha_0 = 0)
    for i in range(z):
        s[i] = float(ionization_rate(z, i, t)[0])
    for i in range(1, z + 1):
        a[i] = float(recombination_rate(z, i, t)[0])

    mat = np.zeros((z + 1, z + 1))
    for i in range(z + 1):
        mat[i, i] = -(a[i] + s[i])
        if i + 1 <= z:
            mat[i, i + 1] = a[i + 1]
        if i - 1 >= 0:
            mat[i, i - 1] = s[i - 1]
    return ne_cm3 * mat


@dataclass
class NEISystem:
    """One element's NEI evolution problem.

    ``temperature_profile`` (optional) makes the coefficients time
    dependent — the system stays linear in y, but A = A(T(t)) must be
    re-evaluated, which is the paper's point (2): "alpha and S ... need to
    be computed in real time".
    """

    z: int
    ne_cm3: float
    temperature_k: float
    temperature_profile: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        self._cached_t: Optional[float] = None
        self._cached_matrix: Optional[np.ndarray] = None
        self.n_matrix_builds = 0

    def temperature_at(self, t: float) -> float:
        if self.temperature_profile is None:
            return self.temperature_k
        temp = float(self.temperature_profile(t))
        if temp <= 0.0:
            raise ValueError(f"temperature profile returned {temp} at t={t}")
        return temp

    def matrix(self, t: float = 0.0) -> np.ndarray:
        """A(t); cached per distinct evaluation time/temperature."""
        temp = self.temperature_at(t)
        if self._cached_t != temp:
            self._cached_matrix = nei_matrix(self.z, temp, self.ne_cm3)
            self._cached_t = temp
            self.n_matrix_builds += 1
        assert self._cached_matrix is not None
        return self._cached_matrix

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """dy/dt = A(t) y."""
        return self.matrix(t) @ y

    def jacobian(self, t: float, y: np.ndarray) -> np.ndarray:
        """The Jacobian is A itself (the system is linear in y)."""
        return self.matrix(t)

    def conservation_defect(self, y: np.ndarray) -> float:
        """|sum(y) - 1| for a fraction vector (should stay ~0)."""
        return abs(float(np.sum(y)) - 1.0)

    def stiffness_ratio(self, t: float = 0.0) -> float:
        """max|Re lambda| / min|Re lambda| over nonzero eigenvalues."""
        eigs = np.linalg.eigvals(self.matrix(t))
        re = np.abs(eigs.real)
        nz = re[re > 1e-30]
        if nz.size < 2:
            return 1.0
        return float(nz.max() / nz.min())
