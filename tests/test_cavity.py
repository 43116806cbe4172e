"""Cavity susceptibility and photon-number spectrum."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qndsim.cavity import photon_number_spectrum, susceptibility
from qndsim.constants import TWO_PI

KAPPA = TWO_PI * 5e8
OMEGA_M = TWO_PI * 2e9


class TestSusceptibility:
    def test_resonant_value_is_two_over_kappa(self):
        chi = susceptibility(0.0, 0.0, KAPPA)
        assert chi == pytest.approx(2.0 / KAPPA, rel=1e-14)
        assert chi.imag == 0.0

    def test_peak_sits_at_minus_delta(self):
        delta = TWO_PI * 1e8
        w = np.linspace(-3 * KAPPA, 3 * KAPPA, 20001) - delta
        mags = np.abs(susceptibility(w, delta, KAPPA))
        assert w[np.argmax(mags)] == pytest.approx(-delta, abs=KAPPA * 1e-3)

    def test_half_width_half_kappa(self):
        # |chi|^2 falls to half its peak at omega + delta = +-kappa/2
        peak = abs(susceptibility(0.0, 0.0, KAPPA)) ** 2
        edge = abs(susceptibility(KAPPA / 2.0, 0.0, KAPPA)) ** 2
        assert edge == pytest.approx(peak / 2.0, rel=1e-12)

    def test_explicit_complex_form(self):
        # cross-check against the unscaled textbook expression at a point
        # far enough out that naive evaluation is still well conditioned
        w, d = 0.7 * KAPPA, -0.3 * KAPPA
        direct = 1.0 / (1j * (d + w) + KAPPA / 2.0)
        assert susceptibility(w, d, KAPPA) == pytest.approx(direct, rel=1e-12)

    def test_scalar_in_scalar_out(self):
        assert isinstance(susceptibility(1.0, 0.0, KAPPA), complex)
        out = susceptibility(np.array([0.0, 1.0]), 0.0, KAPPA)
        assert out.shape == (2,)


class TestPhotonNumberSpectrum:
    def test_peak_value(self):
        # 100 photons in a 500 MHz cavity: 4*100/kappa
        s0 = photon_number_spectrum(0.0, 0.0, KAPPA, 100.0)
        assert s0 == pytest.approx(1.2732395447351627e-07, rel=1e-12)

    def test_mechanical_sideband_value(self):
        s = photon_number_spectrum(OMEGA_M, 0.0, KAPPA, 100.0)
        assert s == pytest.approx(1.9588300688233274e-09, rel=1e-12)

    def test_centred_at_detuning(self):
        delta = TWO_PI * 2e8
        assert photon_number_spectrum(delta, delta, KAPPA, 1.0) == pytest.approx(
            4.0 / KAPPA, rel=1e-12
        )

    def test_total_weight_is_photon_number(self):
        # integral of S_NN over omega/2pi recovers nbar
        val, err = quad(
            lambda w: photon_number_spectrum(w, 0.3 * KAPPA, KAPPA, 7.5),
            -400 * KAPPA,
            400 * KAPPA,
            limit=400,
        )
        assert val / TWO_PI == pytest.approx(7.5, rel=1e-3)

    def test_vector_argument(self):
        w = np.array([-OMEGA_M, 0.0, OMEGA_M])
        s = photon_number_spectrum(w, 0.0, KAPPA, 100.0)
        assert s.shape == (3,)
        assert s[0] == s[2]  # even in omega at zero detuning

    @given(
        w=st.floats(-1e12, 1e12),
        delta=st.floats(-1e10, 1e10),
        kappa=st.floats(1e6, 1e11),
        nbar=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_detailed_balance_link_to_susceptibility(self, w, delta, kappa, nbar):
        # S_NN(-w) = 2 nbar Re chi(w): the same Lorentzian seen from the
        # two sides of the drive
        lhs = photon_number_spectrum(-w, delta, kappa, nbar)
        rhs = 2.0 * nbar * susceptibility(w, delta, kappa).real
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)

    @given(
        w=st.floats(0.0, 1e12),
        kappa=st.floats(1e6, 1e11),
    )
    @settings(max_examples=100, deadline=None)
    def test_even_at_zero_detuning(self, w, kappa):
        assert photon_number_spectrum(w, 0.0, kappa, 3.0) == photon_number_spectrum(
            -w, 0.0, kappa, 3.0
        )

    @given(
        w=st.fractions(-10**12, 10**12),
        delta=st.fractions(-10**10, 10**10),
        kappa=st.fractions(Fraction(1, 10**3), 10**11),
        nbar=st.fractions(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_fractions_give_the_exact_lorentzian(self, w, delta, kappa, nbar):
        # the expression the float rates use, evaluated in exact arithmetic
        s = photon_number_spectrum(w, delta, kappa, nbar)
        assert type(s) is Fraction
        assert s == nbar * kappa / ((w - delta) ** 2 + (kappa / 2) ** 2)
