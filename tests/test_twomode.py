"""Hybridized mode pairs: supermode spectra, induced quadratic coupling."""

import math

import numpy as np
import pytest

from qndsim.constants import TWO_PI
from qndsim.fock import ladder
from qndsim.twomode import (
    TwoModeParams,
    backscatter_occupancy,
    mim_effective_g2,
    mim_frequencies,
    single_mode_mapping,
    supermode_hamiltonian,
    twomode_hamiltonian,
)


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def photon_shells(dim, dim_mech):
    """Total photon number n1 + n2 of each product basis index."""
    n1 = np.repeat(np.arange(dim), dim * dim_mech)
    n2 = np.tile(np.repeat(np.arange(dim), dim_mech), dim)
    return n1 + n2


def quadratic_branches(p, x):
    """Small-displacement expansion omega_0 +/- (nu + G2' x^2)."""
    shift = p.nu + mim_effective_g2(p).G2_prime * np.asarray(x) ** 2
    return p.omega_0 + shift, p.omega_0 - shift


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            TwoModeParams(omega_1=0.0, omega_2=1.0, nu=0.1)
        with pytest.raises(ValueError, match="non-negative"):
            TwoModeParams(omega_1=1.0, omega_2=1.0, nu=-0.1)
        with pytest.raises(ValueError):
            TwoModeParams(omega_1=1.0, omega_2=1.0, nu=0.1, kappa=-1.0)

    def test_form_classifiers(self):
        mim = TwoModeParams.mim(5.0, 0.5, G1=0.3)
        wgm = TwoModeParams.wgm(5.0, 0.5, G1=0.3, G2=0.1)
        assert mim.is_mim_form and not wgm.is_mim_form
        assert mim.g1_difference == 0.3 and mim.g1_sum == 0.0
        assert wgm.g1_sum == 0.3 and wgm.g1_difference == 0.0
        assert wgm.g2_sum == pytest.approx(0.05)

    def test_omega_0_requires_degeneracy(self):
        p = TwoModeParams(omega_1=1.0, omega_2=2.0, nu=0.1)
        assert not p.is_degenerate
        with pytest.raises(ValueError, match="degenerate"):
            p.omega_0

    def test_supermode_frequencies(self):
        p = TwoModeParams.degenerate(5.0, 0.5)
        assert p.omega_plus == 5.5
        assert p.omega_minus == 4.5


class TestHamiltonians:
    def test_mim_matrix_against_hand_built(self):
        p = TwoModeParams.mim(5.0, 0.5, G1=0.3)
        h = twomode_hamiltonian(p, 2, dim_mech=2, omega_m=0.9)
        n = np.diag([0.0, 1.0])
        eye = np.eye(2)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        x = a + a.T
        want = (
            5.0 * kron3(n, eye, eye)
            + 5.0 * kron3(eye, n, eye)
            + 0.9 * kron3(eye, eye, n)
            + 0.5 * (kron3(a.T, a, eye) + kron3(a, a.T, eye))
            + 0.3 * kron3(n, eye, x)
            - 0.3 * kron3(eye, n, x)
        )
        assert np.max(np.abs(h - want)) < 1e-15

    def test_wgm_matrix_against_hand_built(self):
        p = TwoModeParams.wgm(5.0, 0.5, G1=0.3, G2=0.4)
        h = twomode_hamiltonian(p, 2, dim_mech=3, omega_m=0.9)
        n = np.diag([0.0, 1.0])
        eye = np.eye(2)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        bm = np.diag(np.sqrt([1.0, 2.0]), k=1)
        xm = bm + bm.T
        nm = np.diag([0.0, 1.0, 2.0])
        e3 = np.eye(3)
        want = (
            5.0 * kron3(n, eye, e3)
            + 5.0 * kron3(eye, n, e3)
            + 0.9 * kron3(eye, eye, nm)
            + 0.5 * (kron3(a.T, a, e3) + kron3(a, a.T, e3))
            + 0.3 * (kron3(n, eye, xm) + kron3(eye, n, xm))
            + 0.2 * (kron3(n, eye, xm @ xm) + kron3(eye, n, xm @ xm))
        )
        assert np.max(np.abs(h - want)) < 1e-14

    def test_bare_splitting_is_twice_nu(self):
        # one-photon optical block at G = 0: eigenvalues omega_0 +/- nu
        p = TwoModeParams.degenerate(5.0, 0.5)
        h = twomode_hamiltonian(p, 2, dim_mech=2)
        vals = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(vals, [0, 0, 4.5, 4.5, 5.5, 5.5, 10, 10], atol=1e-12)

    def test_mechanical_arguments_checked_at_entry(self):
        p = TwoModeParams.wgm(5.0, 0.5, G1=0.3, G2=0.4)
        for build in (twomode_hamiltonian, supermode_hamiltonian):
            assert type(build(p, 2)) is np.ndarray
            for x_zpf in (math.nan, math.inf, 0.0, -1e-15):
                with pytest.raises(ValueError, match="x_zpf must be positive"):
                    build(p, 2, x_zpf=x_zpf)
            for omega_m in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="omega_m must be finite"):
                    build(p, 2, omega_m=omega_m)

    def test_supermode_requires_degenerate_modes(self):
        p = TwoModeParams(omega_1=1.0, omega_2=2.0, nu=0.1)
        with pytest.raises(ValueError, match="degenerate"):
            supermode_hamiltonian(p, 2)

    def test_both_bases_conserve_total_photon_number(self):
        p = TwoModeParams.mim(5.0, 0.7, G1=0.3)
        dim, dm = 4, 3
        ns = np.diag(np.arange(dim, dtype=float))
        eye = np.eye(dim)
        em = np.eye(dm)
        n_tot = kron3(ns, eye, em) + kron3(eye, ns, em)
        for build in (twomode_hamiltonian, supermode_hamiltonian):
            h = build(p, dim, dim_mech=dm, omega_m=1.3)
            comm = h @ n_tot - n_tot @ h
            assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(h))

    def test_unitary_equivalence_on_complete_shells(self):
        # basis rotation preserves each total-photon block; truncation only
        # mutilates the incomplete shells from n1+n2 = dim up (at dim the
        # spectra differ by 0.99), so compare spectra blockwise below that.
        # Unequal pulls make g1_sum, g1_difference, g2_sum and
        # g2_difference all nonzero, and a sign slip in any one moves the
        # spectrum (the g2 exchange term breaks the d -> -d symmetry)
        p = TwoModeParams.degenerate(
            5.0, 0.7, G1_a1=0.3, G1_a2=-0.11, G2_a1=0.2, G2_a2=0.05
        )
        dim, dm = 4, 3
        h_bare = twomode_hamiltonian(p, dim, dim_mech=dm, omega_m=1.3)
        h_super = supermode_hamiltonian(p, dim, dim_mech=dm, omega_m=1.3)
        shells = photon_shells(dim, dm)
        for n in range(dim):
            idx = np.flatnonzero(shells == n)
            e_bare = np.linalg.eigvalsh(h_bare[np.ix_(idx, idx)])
            e_super = np.linalg.eigvalsh(h_super[np.ix_(idx, idx)])
            assert np.max(np.abs(e_bare - e_super)) < 1e-12

    def test_one_photon_block_matches_branch_frequencies(self):
        # with omega_m = 0 the one-photon block is the 2x2 MIM matrix at
        # each eigenvalue x_k of x_zpf (b + b^dag), so its spectrum is the
        # closed form omega_0 +/- sqrt(nu^2 + G1^2 x_k^2) that twomode reports
        p = TwoModeParams.mim(5.0, 0.5, G1=0.3)
        dm, x_zpf = 6, 0.7
        h = twomode_hamiltonian(p, 2, dim_mech=dm, x_zpf=x_zpf, omega_m=0.0)
        idx = np.flatnonzero(photon_shells(2, dm) == 1)
        got = np.linalg.eigvalsh(h[np.ix_(idx, idx)])
        b, bdag, _ = ladder(dm)
        wp, wm = mim_frequencies(p, np.linalg.eigvalsh(x_zpf * (b + bdag)))
        assert np.max(np.abs(got - np.sort(np.concatenate((wp, wm))))) < 1e-13

    def test_wgm_supermode_has_no_exchange_part(self):
        # identical pulls: each supermode population is conserved
        p = TwoModeParams.wgm(5.0, 0.7, G1=0.3, G2=0.1)
        dim, dm = 3, 3
        h = supermode_hamiltonian(p, dim, dim_mech=dm, omega_m=1.3)
        n_plus = kron3(np.diag(np.arange(3.0)), np.eye(3), np.eye(3))
        comm = h @ n_plus - n_plus @ h
        assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(h))


class TestBranchFrequencies:
    def test_at_rest_reduces_to_supermodes(self):
        p = TwoModeParams.mim(5.0, 0.5, G1=0.3)
        wp, wm = mim_frequencies(p, 0.0)
        assert wp == 5.5 and wm == 4.5
        qp, qm = quadratic_branches(p, 0.0)
        assert qp == 5.5 and qm == 4.5

    def test_displaced_splitting(self):
        # nu/2pi = 10 GHz, G1 x /2pi = 1 GHz: root = 2pi sqrt(101) GHz
        omega_0 = TWO_PI * 200e12
        p = TwoModeParams.mim(omega_0, TWO_PI * 10e9, G1=TWO_PI * 1e9)
        wp, wm = mim_frequencies(p, 1.0)
        root = TWO_PI * math.sqrt(101.0) * 1e9
        # omega_0/root ~ 2e4, so the subtraction eats ~4 digits of the
        # 16 available; 1e-11 is the honest double-precision bound here
        assert wp - omega_0 == pytest.approx(root, rel=1e-11)
        assert omega_0 - wm == pytest.approx(root, rel=1e-11)
        assert (wp - wm) / 2.0 == pytest.approx(root, rel=1e-11)

    def test_even_in_displacement(self):
        p = TwoModeParams.mim(5.0, 0.5, G1=0.3)
        x = np.linspace(-2.0, 2.0, 41)
        wp, wm = mim_frequencies(p, x)
        assert np.array_equal(wp, wp[::-1])
        assert np.array_equal(wm, wm[::-1])
        assert wp.shape == x.shape

    def test_requires_mim_form_and_positive_nu(self):
        wgm = TwoModeParams.wgm(5.0, 0.5, G1=0.3, G2=0.0)
        with pytest.raises(ValueError, match="MIM"):
            mim_frequencies(wgm, 0.1)
        flat = TwoModeParams.mim(5.0, 0.0, G1=0.3)
        with pytest.raises(ValueError, match="nu"):
            mim_frequencies(flat, 0.1)

    def test_quadratic_error_bound(self):
        # |exact - quadratic| / nu sits between s^2/16 and s^2/8 with
        # s = (G1 x / nu)^2, so below (G1 x / nu)^4 throughout
        p = TwoModeParams.mim(5.0, 1.0, G1=1.0)
        x = np.linspace(0.05, 0.5, 19)
        exact, quadratic = mim_frequencies(p, x)[0], quadratic_branches(p, x)[0]
        err = np.abs(exact - quadratic) / p.nu
        s = x**2
        assert np.all(err <= s**2 / 8.0 + 1e-15)
        assert np.all(err >= s**2 / 16.0)
        assert np.all(err <= x**4)


class TestEffectiveQuadratic:
    def test_closed_form(self):
        p = TwoModeParams.mim(5.0, 2.0, G1=0.6)
        eff = mim_effective_g2(p)
        assert eff.G2_prime == pytest.approx(0.6**2 / 4.0, rel=1e-14)
        assert eff.g2 is None

    def test_matches_finite_difference_curvature(self):
        # five-point second derivative of the upper branch at x = 0 is
        # 2 G2' to O(h^4)
        p = TwoModeParams.mim(1.0, 1.0, G1=1.0)
        g2p = mim_effective_g2(p).G2_prime
        h = 1e-2
        f = [mim_frequencies(p, k * h)[0] for k in (-2, -1, 0, 1, 2)]
        curv = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        assert curv / 2.0 == pytest.approx(g2p, rel=1e-6)

    def test_doubling_nu_halves_coupling(self):
        a = mim_effective_g2(TwoModeParams.mim(5.0, 1.0, G1=0.3)).G2_prime
        b = mim_effective_g2(TwoModeParams.mim(5.0, 2.0, G1=0.3)).G2_prime
        assert a == pytest.approx(2.0 * b, rel=1e-14)

    def test_single_photon_form(self):
        p = TwoModeParams.mim(5.0, 2.0, G1=0.6)
        eff = mim_effective_g2(p, x_zpf=1e-15)
        g1 = 0.6 * 1e-15
        assert eff.g2 == pytest.approx(g1 * g1 / 4.0, rel=1e-14)
        with pytest.raises(ValueError, match="x_zpf"):
            mim_effective_g2(p, x_zpf=0.0)

    def test_degenerate_crossing_rejected(self):
        p = TwoModeParams.mim(5.0, 0.0, G1=0.3)
        with pytest.raises(ValueError, match="nu = 0"):
            mim_effective_g2(p)

    def test_margin_identity(self):
        # 2 g2 omega_m / (g1 kappa) equals g1 omega_m / (nu kappa) once
        # g2 = g1^2 / 2 nu, so either form of the linear-limit margin may
        # be used interchangeably
        rng = np.random.default_rng(7)
        for _ in range(50):
            nu, big_g1, x_zpf = rng.uniform(0.1, 10.0, size=3)
            omega_m, kappa = rng.uniform(0.1, 10.0, size=2)
            p = TwoModeParams.mim(5.0, nu, G1=big_g1)
            g2 = mim_effective_g2(p, x_zpf=x_zpf).g2
            g1 = big_g1 * x_zpf
            lhs = 2.0 * g2 * omega_m / (g1 * kappa)
            rhs = g1 * omega_m / (nu * kappa)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBackscatter:
    def test_closed_form(self):
        assert backscatter_occupancy(1.0, 0.0, 2.0, 4.0) == pytest.approx(4.0)
        assert backscatter_occupancy(0.0, 0.3, 2.0, 4.0) == 0.0

    def test_symmetric_in_detuning(self):
        a = backscatter_occupancy(0.5, 1.0, 2.0, 3.0)
        b = backscatter_occupancy(0.5, -1.0, 2.0, 3.0)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            backscatter_occupancy(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            backscatter_occupancy(1.0, 0.0, 1.0, -1.0)


class TestSingleModeMapping:
    def test_weak_mixing(self):
        m = single_mode_mapping(nu=0.005, kappa=1.0, delta=0.0, N1=100.0)
        assert m.regime == "weak"
        assert m.measurement_factor == 1.0
        assert m.nbar_effective == m.nbar_1 + m.nbar_2
        assert m.nbar_2 == pytest.approx(
            backscatter_occupancy(0.005, 0.0, 1.0, 100.0)
        )

    def test_strong_mixing(self):
        m = single_mode_mapping(nu=5.0, kappa=1.0, delta=0.0, N1=100.0)
        assert m.regime == "strong"
        assert m.measurement_factor == 0.5

    def test_boundaries_belong_to_their_limits(self):
        # literal values of 2 nu / kappa: 0.1 and 10 are the limits of a
        # dominance factor of 10, and 0.105 and 9.5 lie just inside them
        regimes = {
            nu: single_mode_mapping(nu, 1.0, 0.0, 1.0).regime
            for nu in (0.05, 0.0525, 4.75, 5.0)
        }
        assert regimes == {
            0.05: "weak", 0.0525: "unclassified", 4.75: "unclassified", 5.0: "strong"
        }

    def test_unclassified_carries_both_candidates(self):
        m = single_mode_mapping(nu=0.5, kappa=1.0, delta=0.0, N1=10.0)
        assert m.regime == "unclassified"
        assert m.measurement_factor is None
        assert len(m.candidates) == 2
        (n_a, f_a), (n_b, f_b) = m.candidates
        assert n_a == n_b == m.nbar_effective
        assert {f_a, f_b} == {1.0, 0.5}


def test_params_must_be_finite():
    with pytest.raises(ValueError, match="nu must be finite"):
        TwoModeParams(omega_1=1.0, omega_2=1.0, nu=math.nan)
    with pytest.raises(ValueError, match="G2_a1 must be finite"):
        TwoModeParams.wgm(5.0, 0.5, G1=0.3, G2=math.inf)
