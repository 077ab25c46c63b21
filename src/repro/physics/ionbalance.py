"""Collisional ionization equilibrium (CIE) ion fractions.

APEC computes spectra for "a hot, optically-thin plasma in collisional
ionization equilibrium".  In CIE the charge-state ladder of each element
satisfies detailed balance between neighbouring states:

    f_c * S_c(T) = f_{c+1} * alpha_{c+1}(T),   c = 0..Z-1

so the fractions follow from the rate ratios alone.  The recursion is done
in log space: rate ratios span many orders of magnitude across a ladder
(that same spread is what makes the NEI ODEs stiff).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.atomic.abundances import SOLAR, AbundanceSet
from repro.atomic.elements import cosmic_abundance
from repro.atomic.ions import Ion
from repro.atomic.rates import ladder_rates

__all__ = ["cie_fractions", "ion_fraction", "ion_density"]


@lru_cache(maxsize=4096)
def _cie_fractions_cached(z: int, temperature_k: float) -> tuple[float, ...]:
    s, a = ladder_rates(z, temperature_k)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(
            s <= 0.0, -np.inf, np.where(a <= 0.0, np.inf, np.log(s) - np.log(a))
        )
    # log f_c relative to log f_0 = 0.
    log_f = np.concatenate([[0.0], np.cumsum(log_ratio)])
    log_f -= log_f.max()  # stabilize before exponentiating
    f = np.exp(log_f)
    f /= f.sum()
    return tuple(float(x) for x in f)


def cie_fractions(z: int, temperature_k: float) -> np.ndarray:
    """Equilibrium charge-state fractions f_0..f_Z of element ``z`` at T.

    Returns an array of ``z + 1`` non-negative values summing to 1.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    if temperature_k <= 0.0:
        raise ValueError("temperature must be positive")
    return np.array(_cie_fractions_cached(z, float(temperature_k)))


def ion_fraction(ion: Ion, temperature_k: float) -> float:
    """CIE fraction of the *recombining* ion (charge j+1)."""
    return float(cie_fractions(ion.z, temperature_k)[ion.charge])


def ion_density(
    ion: Ion,
    temperature_k: float,
    ne_cm3: float,
    n_h_over_ne: float = 0.83,
    abundances: AbundanceSet = SOLAR,
) -> float:
    """Number density of the recombining ion, cm^-3.

    n_ion = n_H * (N_X / N_H) * f_(Z, j+1), with n_H tied to the electron
    density by the usual hot-plasma ratio n_H ~ 0.83 n_e and the relative
    abundance drawn from ``abundances`` (solar by default).
    """
    if ne_cm3 < 0.0:
        raise ValueError("electron density must be non-negative")
    n_h = n_h_over_ne * ne_cm3
    return n_h * abundances.of(ion.z) * ion_fraction(ion, temperature_k)
