"""Ionization and recombination rate coefficients.

These feed two consumers:

- the CIE ionization balance (:mod:`repro.physics.ionbalance`) that sets
  the ion densities n_(Z, j+1) in Eq. (1), and
- the NEI ODE system of Eq. (4), whose stiffness comes from rate
  coefficients spanning many orders of magnitude across charge states.

Forms are the standard fit shapes with deterministic synthetic parameters:

- collisional ionization: Voronov (1997) functional form,
  ``S = A (1 + P sqrt(U)) U^K exp(-U) / (X + U)`` with ``U = dE / kT``;
- radiative recombination: power law ``A_r (T / 1e4 K)^-eta``;
- dielectronic recombination: Burgess-style
  ``A_d T^-3/2 exp(-T0 / T) (1 + B_d exp(-T1 / T))``.

Units: cm^3 s^-1; temperatures in K; all functions vectorized over T.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.atomic.levels import effective_charge, quantum_defect
from repro.constants import K_B_KEV, RYDBERG_KEV

__all__ = [
    "ionization_potential",
    "ionization_rate",
    "radiative_recombination_rate",
    "dielectronic_recombination_rate",
    "recombination_rate",
    "ladder_rates",
]


def ionization_potential(z: int, charge: int) -> float:
    """Ground-state ionization potential of ion (Z, charge), in keV.

    ``charge`` is the ion's own charge (0 = neutral); ionization produces
    charge + 1.  Hydrogenic with the same screening model as the level
    structure, so thresholds and level energies are mutually consistent.
    """
    if charge < 0 or charge >= z:
        raise ValueError(
            f"cannot ionize (Z={z}, charge={charge}); charge must be 0..{z - 1}"
        )
    # The outermost electron of ion `charge` behaves like the captured
    # electron of recombining ion `charge + 1`.
    c_rec = charge + 1
    c_eff = effective_charge(z, c_rec, 0)
    delta = quantum_defect(z, c_rec, 0)
    # Outermost shell grows with the number of core electrons.
    n_out = 1 + int(np.floor((z - c_rec) / 2.5))
    return RYDBERG_KEV * c_eff**2 / (n_out - delta) ** 2


def ionization_rate(z: int, charge: int, temperature_k: np.ndarray) -> np.ndarray:
    """Collisional ionization rate coefficient S_{Z,charge}(T), cm^3/s.

    Voronov functional form with synthetic parameters tied smoothly to
    (Z, charge) so neighbouring ions have neighbouring rates.
    """
    t = np.asarray(temperature_k, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("temperature must be positive")
    de_kev = ionization_potential(z, charge)
    u = de_kev / (K_B_KEV * t)
    # Synthetic Voronov-like parameters (deterministic in Z, charge).
    a = 2.0e-8 / (1.0 + 0.5 * charge) / np.sqrt(z)
    p = 1.0 if (z + charge) % 2 == 0 else 0.0
    k_exp = 0.35 + 0.05 * (charge / z)
    x = 0.2 + 0.6 * (charge + 1) / z
    with np.errstate(over="ignore", under="ignore"):
        rate = a * (1.0 + p * np.sqrt(u)) * u**k_exp * np.exp(-u) / (x + u)
    return rate


def radiative_recombination_rate(
    z: int, charge: int, temperature_k: np.ndarray
) -> np.ndarray:
    """Radiative recombination rate alpha_r for (Z, charge) -> charge-1."""
    t = np.asarray(temperature_k, dtype=np.float64)
    if charge < 1 or charge > z:
        raise ValueError(f"recombining charge must be 1..{z}, got {charge}")
    a_r = 2.0e-13 * charge**2 / np.sqrt(z)
    eta = 0.6 + 0.1 * charge / z
    return a_r * (t / 1.0e4) ** (-eta)


def dielectronic_recombination_rate(
    z: int, charge: int, temperature_k: np.ndarray
) -> np.ndarray:
    """Dielectronic recombination alpha_d (zero for bare/H-like cores)."""
    t = np.asarray(temperature_k, dtype=np.float64)
    if charge < 1 or charge > z:
        raise ValueError(f"recombining charge must be 1..{z}, got {charge}")
    if z - charge < 1:
        # A bare nucleus has no core electron to excite.
        return np.zeros_like(t)
    de_kev = ionization_potential(z, charge - 1)
    t0 = de_kev / K_B_KEV * 0.3
    t1 = t0 * 0.1
    a_d = 1.0e-3 * charge**2 / z
    with np.errstate(over="ignore", under="ignore"):
        return a_d * t ** (-1.5) * np.exp(-t0 / t) * (1.0 + 0.3 * np.exp(-t1 / t))


def recombination_rate(z: int, charge: int, temperature_k: np.ndarray) -> np.ndarray:
    """Total recombination alpha = alpha_r + alpha_d, cm^3/s."""
    return radiative_recombination_rate(
        z, charge, temperature_k
    ) + dielectronic_recombination_rate(z, charge, temperature_k)


@lru_cache(maxsize=None)
def _ladder_parameters(z: int) -> tuple[np.ndarray, ...]:
    """The fit parameters of the functions above, tabulated once per
    element: one entry per step ``c -> c + 1`` of the charge ladder."""
    rows = []
    for c in range(z):
        de_kev = ionization_potential(z, c)
        t0 = de_kev / K_B_KEV * 0.3
        rows.append((
            de_kev,
            2.0e-8 / (1.0 + 0.5 * c) / np.sqrt(z),
            1.0 if (z + c) % 2 == 0 else 0.0,
            0.35 + 0.05 * (c / z),
            0.2 + 0.6 * (c + 1) / z,
            2.0e-13 * (c + 1) ** 2 / np.sqrt(z),
            0.6 + 0.1 * (c + 1) / z,
            t0,
            t0 * 0.1,
            # A bare nucleus has no core electron to excite.
            1.0e-3 * (c + 1) ** 2 / z if c + 1 < z else 0.0,
        ))
    return tuple(np.array(column) for column in zip(*rows))


def ladder_rates(z: int, temperature_k: float) -> tuple[np.ndarray, np.ndarray]:
    """``S_c(T)`` and ``alpha_{c+1}(T)`` for ``c = 0..Z-1`` in one pass.

    :func:`ionization_rate` and :func:`recombination_rate` evaluated over
    the charge axis of one element at one temperature — the same
    expressions operation for operation, so each entry is bit-identical
    to the per-charge call (``tests/atomic/test_rates.py`` pins it).
    """
    if temperature_k <= 0.0:
        raise ValueError("temperature must be positive")
    de_kev, a, p, k_exp, x, a_r, eta, t0, t1, a_d = _ladder_parameters(z)
    t = np.full(z, temperature_k, dtype=np.float64)
    u = de_kev / (K_B_KEV * t)
    with np.errstate(over="ignore", under="ignore"):
        s = a * (1.0 + p * np.sqrt(u)) * u**k_exp * np.exp(-u) / (x + u)
        alpha_d = a_d * t ** (-1.5) * np.exp(-t0 / t) * (1.0 + 0.3 * np.exp(-t1 / t))
    return s, a_r * (t / 1.0e4) ** (-eta) + alpha_d
