"""Recombination cross sections: Kramers photoionization + Milne relation.

The RRC integrand of Eq. (1) needs sigma_rec_n(E_e), the cross section for
capturing a free electron of energy E_e into level n.  We derive it the
standard way:

1. Kramers' semi-classical photoionization cross section from level n,

       sigma_ph(E_gamma) = sigma_K * n * (I_n / E_gamma)^3 / c_eff^2,

   valid for E_gamma >= I_n (zero below threshold).

2. The Milne relation (detailed balance) converts photoionization into
   radiative recombination:

       sigma_rec(E_e) = (g_n / (2 g_ion)) * E_gamma^2 / (2 m_e c^2 E_e)
                        * sigma_ph(E_gamma),   E_gamma = E_e + I_n.

All energies in keV, cross sections in cm^2.  The functions are NumPy
ufunc-style (scalars or arrays in, same shape out) so the *identical* code
runs in the scalar CPU path and the batched GPU kernel path.
"""

from __future__ import annotations

import numpy as np

from repro.constants import ME_C2_KEV, SIGMA_KRAMERS_CM2

__all__ = ["kramers_photoionization", "milne_recombination"]


def kramers_photoionization(
    e_gamma_kev: np.ndarray,
    binding_kev: float,
    n: int,
    c_eff: float,
) -> np.ndarray:
    """Kramers bound-free photoionization cross section in cm^2.

    Zero below threshold (E_gamma < I_n); ~E^-3 falloff above it, with the
    1/n and 1/c_eff^2 scalings of the semi-classical formula.
    """
    e = np.asarray(e_gamma_kev, dtype=np.float64)
    if binding_kev <= 0.0:
        raise ValueError("binding energy must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if c_eff <= 0.0:
        raise ValueError("effective charge must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(e > 0.0, binding_kev / e, 0.0)
    sigma = SIGMA_KRAMERS_CM2 * (ratio**3) * n / (c_eff**2)
    return np.where(e >= binding_kev, sigma, 0.0)


def milne_recombination(
    e_electron_kev: np.ndarray,
    binding_kev: float,
    n: int,
    c_eff: float,
    g_level: float,
    g_ion: float = 1.0,
) -> np.ndarray:
    """Radiative recombination cross section via the Milne relation, cm^2.

    Parameters
    ----------
    e_electron_kev:
        Free-electron kinetic energy E_e (>= 0); the emitted photon has
        E_gamma = E_e + I_n.
    g_level, g_ion:
        Statistical weights of the captured level and of the recombining
        ion ground state.
    """
    e_e = np.asarray(e_electron_kev, dtype=np.float64)
    e_gamma = e_e + binding_kev
    sigma_ph = kramers_photoionization(e_gamma, binding_kev, n, c_eff)
    weight = g_level / (2.0 * g_ion)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(
            e_e > 0.0, e_gamma**2 / (2.0 * ME_C2_KEV * e_e), 0.0
        )
    return np.where(e_e > 0.0, weight * factor * sigma_ph, 0.0)
