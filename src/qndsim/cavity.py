"""Cavity response functions: susceptibility and photon-number spectrum.

Both functions work in the frame rotating at the drive and take angular
rates in rad/s. Internally frequencies are scaled by the linewidth kappa,
which keeps the Lorentzian denominators well conditioned for GHz-scale
arguments. :func:`photon_number_spectrum` is plain arithmetic with integer
constants, so it evaluates floats, numpy arrays and exact Fractions alike.
"""

from __future__ import annotations

import numpy as np


def susceptibility(omega, delta: float, kappa: float):
    """Cavity amplitude susceptibility 1 / (i*(delta + omega) + kappa/2).

    Real part (kappa/2) / ((omega + delta)^2 + (kappa/2)^2) is the rate-like
    piece; the imaginary part -(omega + delta) / (...) generates frequency
    pulls. Returns a complex scalar or array matching ``omega``.
    """
    u = (np.asarray(omega) + delta) / kappa
    d = u * u + 0.25
    chi = (0.5 / d - 1j * (u / d)) / kappa
    if np.isscalar(omega):
        return complex(chi)
    return chi


def photon_number_spectrum(omega, delta: float, kappa: float, nbar_photon: float):
    """Spectral density of intracavity photon-number fluctuations.

    S_NN(omega) = nbar * kappa / ((omega - delta)^2 + (kappa/2)^2), a
    Lorentzian of full width kappa centred at the detuning, with peak value
    4*nbar/kappa and total weight nbar (integral over omega/2pi). Floats
    give a float, arrays an array and Fractions an exact Fraction; a list
    is not converted, so pass an array.
    """
    v = (omega - delta) / kappa
    return 4 * nbar_photon / kappa / (4 * v * v + 1)
