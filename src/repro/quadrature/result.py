"""Result and tolerance types shared by all integrators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of a one-dimensional definite integral.

    Attributes
    ----------
    value:
        The integral estimate.
    abserr:
        Estimated absolute error of ``value``.
    neval:
        Number of integrand evaluations performed.
    converged:
        Whether the requested tolerance was met.
    subdivisions:
        Number of subintervals used (adaptive integrators only).
    extrapolated:
        Whether the value came from series extrapolation rather than the
        plain interval sum (QAGS only).
    """

    value: float
    abserr: float
    neval: int
    converged: bool = True
    subdivisions: int = 1
    extrapolated: bool = False


@dataclass
class ErrorBudget:
    """Mutable tolerance bookkeeping for adaptive integrators.

    QUADPACK accepts both an absolute (``epsabs``) and a relative
    (``epsrel``) tolerance and stops when either is met; this mirrors that
    convention.
    """

    epsabs: float = 1.0e-10
    epsrel: float = 1.0e-8
    floor: float = field(default=1.0e-300, repr=False)

    def __post_init__(self) -> None:
        if self.epsabs < 0.0 or self.epsrel < 0.0:
            raise ValueError("tolerances must be non-negative")
        if self.epsabs == 0.0 and self.epsrel == 0.0:
            raise ValueError("at least one of epsabs/epsrel must be positive")

    def target(self, value: float) -> float:
        """The error target for a current integral estimate ``value``."""
        return max(self.epsabs, self.epsrel * abs(value), self.floor)

    def satisfied(self, value: float, abserr: float) -> bool:
        return abserr <= self.target(value)
