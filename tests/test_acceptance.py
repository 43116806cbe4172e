"""End-to-end acceptance gate: nine checks, one pass/fail line each.

Each test prints one ``criterion N: PASS/FAIL - detail`` line (visible
with ``pytest -s``) and asserts the same bounds, so the suite doubles as
a checklist. Stochastic legs run at frozen seeds; the generator streams
are keyed Philox, so every number here is an exact regression.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from qndsim.constants import TWO_PI
from qndsim.coupling import (
    Interface,
    ModeField,
    PermittivityPerturbation,
    boundary_overlap,
    g1_coefficient,
    inner_product,
)
from qndsim.lindblad import (
    LindbladGenerator,
    bipartite_generator,
    extract_transition_rate,
    reduced_generator,
    steady_state,
)
from qndsim.rates import (
    cooperativities,
    feasibility,
    max_monitorable_state,
    transition_rates,
)
from qndsim.trajectories import channel_coefficients, ensemble
from qndsim.twomode import TwoModeParams, mim_effective_g2, mim_frequencies

from conftest import make_ref


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_density(dim: int, rng) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestCriterion1:
    def test_reference_point_headline_numbers(self, ref_params):
        t0 = time.perf_counter()
        coop = cooperativities(ref_params)
        ratio = coop.q2
        raw, floor = max_monitorable_state(ref_params)
        wall = time.perf_counter() - t0
        ok = (
            coop.c2 == 8.0
            and ratio == 32.0
            and abs(raw - 31.0 / 6.0) < 1e-12
            and floor == 5
            and wall < 1.0
        )
        _line(
            1,
            ok,
            f"C2={coop.c2} meas/thermal={ratio} n_max={raw:.6f} "
            f"floor={floor} wall={wall * 1e3:.3f} ms",
        )
        assert coop.c2 == 8.0
        assert ratio == 32.0
        assert abs(raw - 31.0 / 6.0) < 1e-12
        assert floor == 5
        assert wall < 1.0


class TestCriterion2:
    def test_measurement_ladder_is_exact(self):
        vals = [
            cooperativities(make_ref(nbar_photon=nb)).q2
            for nb in (1.0, 10.0, 100.0)
        ]
        ok = vals == [0.32, 3.2, 32.0]
        _line(2, ok, f"ladder={vals} (exact rational arithmetic)")
        assert vals == [0.32, 3.2, 32.0]


def _bose_einstein(nbar, length):
    n = np.arange(length)
    return (1.0 / (1.0 + nbar)) * (nbar / (1.0 + nbar)) ** n


def _total_variation(a, b):
    size = max(len(a), len(b))
    a = np.pad(a, (0, size - len(a)))
    b = np.pad(b, (0, size - len(b)))
    return 0.5 * float(np.abs(a - b).sum())


class TestCriterion3:
    def test_occupancy_against_bath_statistics(self, ref_params):
        # With the drive on resonance the cavity noise is symmetric at
        # +-omega_m, so the one- and two-phonon optical channels heat the
        # oscillator above the bath. The sampled histogram is checked
        # against the exact fixed point of the rates it samples, and
        # against Bose-Einstein where the bath is the only channel.
        p = ref_params
        gamma_th0 = p.gamma_m * p.nbar_th
        count, t_final = 160, 0.04
        t0 = time.perf_counter()
        stats = ensemble(p, 0, t_final, count, seed_base=42)
        wall = time.perf_counter() - t0
        budget = count * t_final * gamma_th0

        # Exact fixed point of the same rates: 30 states hold its mean to
        # 4.9e-10 of the closed form below (20 states are off by 1.5e-7).
        gen = reduced_generator(p, 30)
        pops = np.diag(steady_state(gen).entries).real
        mean_exact = float(pops @ np.arange(len(pops)))
        tv = _total_variation(stats.histogram, pops)

        # Rate equation for <n> with up = down coefficients (A one-phonon,
        # B two-phonon): d<n>/dt = Gamma_m (n_th - <n>) + A + B (8<n> + 4).
        c = channel_coefficients(p)
        assert c[2] == pytest.approx(c[3], rel=1e-12)
        assert c[4] == pytest.approx(c[5], rel=1e-12)
        a_up1, b_up2 = c[2], c[4]
        mean_closed = (gamma_th0 + a_up1 + 4.0 * b_up2) / (
            p.gamma_m - 8.0 * b_up2
        )

        be = _bose_einstein(p.nbar_th, len(stats.histogram))
        shift = _total_variation(pops, be)

        # Bath leg: no photons, so the thermal channel is the only one.
        p_bath = make_ref(nbar_photon=0.0)
        stats_bath = ensemble(p_bath, 0, t_final, count, seed_base=42)
        be_bath = _bose_einstein(p_bath.nbar_th, len(stats_bath.histogram))
        tv_bath = _total_variation(stats_bath.histogram, be_bath)

        ok = (
            budget >= 1e4
            and wall < 60.0
            and tv <= 0.02
            and math.isclose(mean_exact, mean_closed, rel_tol=1e-8)
            and tv_bath <= 0.02
            and shift > 0.02
        )
        _line(
            3,
            ok,
            f"TV={tv:.4f} sampled vs fixed point, {tv_bath:.4f} bath leg vs "
            f"BE (bound 0.02); fixed point shifted {shift:.4f} from BE(n_th), "
            f"<n>={mean_closed:.6f} vs n_th={p.nbar_th}; "
            f"traj_sec*Gamma_th0={budget:.0f}, wall={wall:.2f} s",
        )
        assert budget >= 1e4
        assert wall < 60.0
        assert mean_exact == pytest.approx(mean_closed, rel=1e-8)
        assert tv <= 0.02, (
            f"total variation {tv:.4f} from the generator's fixed point "
            f"exceeds 0.02"
        )
        assert tv_bath <= 0.02, (
            f"bath-only total variation {tv_bath:.4f} from Bose-Einstein "
            f"exceeds 0.02"
        )
        assert shift > 0.02, (
            f"fixed point only {shift:.4f} from BE(n_th): the optical "
            f"heating has gone missing"
        )


# Jump-statistics validation runs at a purpose-built operating point:
# delta = 2 omega_m parks the cavity noise peak on the two-phonon
# down-sideband, keeping both two-phonon cells statistically healthy
# while the chain spends its event budget on the lowest three states;
# count and t_final put row 3 just under the 500-visit floor with the
# total comfortably above 1e5 events.
C4_KW = dict(
    omega_m_hz=800.0,
    kappa_hz=400.0,
    delta_hz=1600.0,
    g1_hz=280.0,
    g2_hz=150.0,
    gamma_m_hz=200.0,
    nbar_th=0.005,
    nbar_photon=1.0,
)
C4_COUNT = 20
C4_T_FINAL = 57.5
C4_SEED_GILLESPIE = 223000
C4_SEED_QJ = 735000


def _rate_cell_failures(stats, params):
    """Check the five per-channel rates on every well-visited row.

    Rows with at least 500 recorded visits must reproduce the analytic
    thermal (combined up+down), one-phonon, and two-phonon rates within
    5 percent; cells whose analytic rate is zero must show zero counts.
    """
    rows = np.nonzero(stats.visits >= 500)[0]
    failures = []
    worst = 0.0
    for n in rows:
        t_n = stats.time_in_state[n]
        r = transition_rates(params, int(n))
        emp_th = (stats.counts[n, 0] + stats.counts[n, 1]) / t_n
        cells = [
            ("thermal", emp_th, r.gamma_th),
            ("up1", stats.counts[n, 2] / t_n, r.gamma_up1),
            ("down1", stats.counts[n, 3] / t_n, r.gamma_down1),
            ("up2", stats.counts[n, 4] / t_n, r.gamma_up2),
            ("down2", stats.counts[n, 5] / t_n, r.gamma_down2),
        ]
        for name, emp, ana in cells:
            if ana == 0.0:
                if emp != 0.0:
                    failures.append(f"n={n} {name}: nonzero vs analytic zero")
                continue
            err = abs(emp - ana) / ana
            worst = max(worst, err)
            if err > 0.05:
                failures.append(f"n={n} {name}: {err * 100:.2f}%")
    return rows, worst, failures


class TestCriterion4:
    def test_both_unravelings_reproduce_the_rates(self):
        params = make_ref(**C4_KW)
        t0 = time.perf_counter()
        gil = ensemble(params, 0, C4_T_FINAL, C4_COUNT,
                       seed_base=C4_SEED_GILLESPIE)
        gen = reduced_generator(params, 12)
        qj = ensemble(gen, 0, C4_T_FINAL, C4_COUNT, seed_base=C4_SEED_QJ)
        wall = time.perf_counter() - t0

        gil_total = int(gil.counts.sum())
        qj_total = int(qj.counts.sum())
        gil_rows, gil_worst, gil_fail = _rate_cell_failures(gil, params)
        qj_rows, qj_worst, qj_fail = _rate_cell_failures(qj, params)

        ok = (
            gil_total >= 100_000
            and qj_total >= 100_000
            and not gil_fail
            and not qj_fail
            and wall < 300.0
        )
        _line(
            4,
            ok,
            f"gillespie events={gil_total} rows={[int(n) for n in gil_rows]} "
            f"worst={gil_worst * 100:.2f}%; quantum-jump events={qj_total} "
            f"rows={[int(n) for n in qj_rows]} worst={qj_worst * 100:.2f}%; "
            f"wall={wall:.1f} s",
        )
        assert gil_total >= 100_000
        assert not gil_fail, gil_fail
        assert qj_total >= 100_000
        assert not qj_fail, qj_fail
        assert wall < 300.0


class TestCriterion5:
    def test_bipartite_rates_bridge_to_closed_forms(self):
        # compressed scaled units: kappa = 1, omega_m = 10, couplings set
        # so the three target rates land inside [1e-4, 1e-3] kappa
        p = make_ref(
            omega_m_hz=10.0 / TWO_PI,
            kappa_hz=1.0 / TWO_PI,
            gamma_m_hz=5e-4 / TWO_PI,
            g1_hz=0.22389 / TWO_PI,
            g2_hz=0.283 / TWO_PI,
            nbar_th=0.2,
            nbar_photon=1.0,
            delta_hz=0.0,
        )
        r = transition_rates(p, 0)
        th_up = p.gamma_m * p.nbar_th
        for rate in (r.gamma_up1, r.gamma_up2, th_up):
            assert 1e-4 <= rate <= 1e-3  # kappa = 1 in these units

        gen = bipartite_generator(p, 4, 6)
        t0 = time.perf_counter()
        r01 = extract_transition_rate(gen, (0, 0), 1, 5.0, 30.0)
        r02 = extract_transition_rate(gen, (0, 0), 2, 5.0, 30.0)
        wall = time.perf_counter() - t0

        # the 0 -> 1 slope carries the thermal channel on top of the
        # optical one; the 0 -> 2 slope is purely two-phonon
        err1 = abs(r01 - th_up - r.gamma_up1) / r.gamma_up1
        err2 = abs(r02 - r.gamma_up2) / r.gamma_up2
        ok = err1 <= 0.10 and err2 <= 0.15 and wall < 300.0
        _line(
            5,
            ok,
            f"0->1 err={err1 * 100:.2f}% (10% band), "
            f"0->2 err={err2 * 100:.2f}% (15% band), wall={wall:.1f} s",
        )
        assert err1 <= 0.10
        assert err2 <= 0.15
        assert wall < 300.0


class TestCriterion6:
    def test_generator_invariants_over_random_parameters(self):
        rng = np.random.default_rng(2026)
        dim = 7
        worst = 0.0
        for _ in range(100):
            p = make_ref(
                omega_m_hz=10 ** rng.uniform(6, 10),
                kappa_hz=10 ** rng.uniform(5, 9),
                gamma_m_hz=10 ** rng.uniform(0, 5),
                delta_hz=float(rng.choice([-1.0, 0.0, 1.0]))
                * 10 ** rng.uniform(5, 10),
                g1_hz=10 ** rng.uniform(1, 6),
                g2_hz=10 ** rng.uniform(1, 6),
                nbar_th=10 ** rng.uniform(-3, 1.5),
                nbar_photon=10 ** rng.uniform(0, 3),
            )
            gen = reduced_generator(p, dim)
            scale = gen.rate_scale()
            rho = random_density(dim, rng)
            out = gen.apply(rho)

            trace_err = abs(np.trace(out)) / scale
            herm_err = float(np.max(np.abs(out - out.conj().T))) / scale

            pops = rng.random(dim)
            diag = np.diag((pops / pops.sum()).astype(complex))
            out_d = gen.apply(diag)
            closure_err = (
                float(np.max(np.abs(out_d - np.diag(np.diag(out_d))))) / scale
            )

            keep = [
                ch
                for ch, lbl in zip(gen.channels, gen.labels)
                if lbl == "dephasing"
            ]
            qnd = LindbladGenerator(
                hamiltonian=gen.hamiltonian,
                channels=keep,
                time_scale=gen.time_scale,
                labels=("dephasing",),
            )
            out_q = qnd.apply(random_density(dim, rng))
            qnd_err = float(np.max(np.abs(np.diag(out_q)))) / qnd.rate_scale()

            worst = max(worst, trace_err, herm_err, closure_err, qnd_err)
            assert trace_err < 1e-12
            assert herm_err < 1e-12
            assert closure_err < 1e-12
            assert qnd_err < 1e-12
        _line(6, worst < 1e-12,
              f"100 draws, worst scaled residual {worst:.2e} (bound 1e-12)")


class TestCriterion7:
    def test_crossing_curvature_and_margin_identity(self):
        # five-point curvature of the exact upper branch against the
        # closed form G2' = G1^2 / 2 nu
        p = TwoModeParams.mim(5.0, 0.25, G1=1.0)
        g2p = mim_effective_g2(p).G2_prime
        h = 8e-3
        f = [mim_frequencies(p, k * h)[0] for k in (-2, -1, 0, 1, 2)]
        curv = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (
            12 * h * h
        )
        fd_err = abs(curv / 2.0 - g2p) / g2p

        # linear-limit margin written with g2 equals the same margin
        # written with nu, on draws deep in the quasistatic regime
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            nu_hz = 10 ** rng.uniform(4.0, 8.0)
            omega_m_hz = 2.0 * nu_hz / 10 ** rng.uniform(1.7, 3.0)
            assert 2.0 * nu_hz >= 50.0 * omega_m_hz
            kappa_hz = 10 ** rng.uniform(4.0, 8.0)
            big_g1 = 10 ** rng.uniform(2.0, 6.0)
            x_zpf = 10 ** rng.uniform(-15.0, -12.0)
            tm = TwoModeParams.mim(5.0, TWO_PI * nu_hz, G1=big_g1 / x_zpf)
            g1_hz = big_g1 / TWO_PI
            g2_hz = mim_effective_g2(tm, x_zpf=x_zpf).g2 / TWO_PI
            sp = make_ref(
                omega_m_hz=omega_m_hz,
                kappa_hz=kappa_hz,
                g1_hz=g1_hz,
                g2_hz=g2_hz,
            )
            lhs = feasibility(sp, 1).ratios["linear_limit"]
            rhs = g1_hz * omega_m_hz / (nu_hz * kappa_hz)
            worst = max(worst, abs(lhs - rhs) / rhs)
        ok = fd_err <= 1e-6 and worst <= 1e-12
        _line(
            7,
            ok,
            f"curvature rel err={fd_err:.2e} (bound 1e-6), margin identity "
            f"worst={worst:.2e} (bound 1e-12, 50 draws)",
        )
        assert fd_err <= 1e-6
        assert worst <= 1e-12


# --- one-dimensional membrane cavity oracle -------------------------------
#
# Perfect mirrors on [0, 1], thin membrane (eps_m = 1e6, thickness 3e-5)
# at position a. Mode frequencies solve E(1) = 0 with E(0) = 0,
# E'(0) = 1 propagated segment by segment (k = w outside, w sqrt(eps_m)
# inside, c = 1). Derivatives of the tracked root against membrane
# position are the reference for the coupling coefficients.

EPS_M = 1e6
MEM_T = 3e-5
MEM_A0 = 0.5 - 0.5 * MEM_T


def _seg(e, ep, k, ell):
    c, s = math.cos(k * ell), math.sin(k * ell)
    return e * c + ep * s / k, -e * k * s + ep * c


def _mirror_disp(w, a):
    e, ep = _seg(0.0, 1.0, w, a)
    e, ep = _seg(e, ep, w * math.sqrt(EPS_M), MEM_T)
    e, _ = _seg(e, ep, w, 1.0 - a - MEM_T)
    return e


def _roots_in(lo, hi, a, n_scan=2000):
    ws = np.linspace(lo, hi, n_scan)
    vals = np.array([_mirror_disp(w, a) for w in ws])
    out = []
    for i in range(n_scan - 1):
        if vals[i] * vals[i + 1] < 0:
            out.append(
                brentq(_mirror_disp, ws[i], ws[i + 1], args=(a,),
                       xtol=1e-15, rtol=8.9e-16)
            )
    return out


def _track_root(x, wref, span=0.12):
    rts = _roots_in(wref - span / 2.0, wref + span / 2.0, MEM_A0 + x)
    return min(rts, key=lambda r: abs(r - wref))


def _membrane_grid(a, n_out=12000, n_in=80):
    return np.unique(
        np.concatenate([
            np.linspace(0.0, a, n_out),
            np.linspace(a, a + MEM_T, n_in),
            np.linspace(a + MEM_T, 1.0, n_out),
        ])
    )


def _membrane_pert(grid, a):
    eps = np.where((grid >= a) & (grid <= a + MEM_T), EPS_M, 1.0)
    return PermittivityPerturbation(
        epsilon=eps,
        depsilon_dx=np.zeros_like(grid),
        interfaces=(
            Interface(a, -1, eps_d=EPS_M, eps_s=1.0, qu=-1.0),
            Interface(a + MEM_T, 1, eps_d=EPS_M, eps_s=1.0, qu=1.0),
        ),
    )


def _membrane_mode(w, a, grid):
    km = w * math.sqrt(EPS_M)
    ea, epa = _seg(0.0, 1.0, w, a)
    eb, epb = _seg(ea, epa, km, MEM_T)
    field = np.empty_like(grid)
    left = grid <= a
    mid = (grid > a) & (grid < a + MEM_T)
    right = grid >= a + MEM_T
    field[left] = np.sin(w * grid[left]) / w
    xm = grid[mid] - a
    field[mid] = ea * np.cos(km * xm) + epa * np.sin(km * xm) / km
    xr = grid[right] - (a + MEM_T)
    field[right] = eb * np.cos(w * xr) + epb * np.sin(w * xr) / w
    return ModeField(grid, field, w, label=f"w={w:.6f}")


def _surface_g1(mode, pert):
    norm = inner_product(mode, pert.epsilon, mode).real
    return -0.5 * mode.frequency * boundary_overlap((mode, mode), pert).real / norm


def _fd5(vals, h):
    m2, m1, p0, p1, p2 = vals
    d1 = (m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)
    d2 = (-m2 + 16 * m1 - 30 * p0 + 16 * p1 - p2) / (12 * h * h)
    return d1, d2


class TestCriterion8:
    def test_even_mode_odd_perturbation_has_no_linear_pull(self):
        grid = np.linspace(-1.0, 1.0, 20001)
        omega = 3.0e14
        mode = ModeField(grid, np.cos(np.pi * grid / 2.0), omega)
        pert = PermittivityPerturbation(
            epsilon=1.0 + 0.5 * np.exp(-(grid ** 2)),
            depsilon_dx=grid * np.exp(-(grid ** 2)),
        )
        g1 = g1_coefficient(mode, pert)
        ok = abs(g1) < 1e-12 * omega
        _line(8, ok, f"(a) symmetric-mode |G1|/omega={abs(g1) / omega:.1e} "
                     f"(bound 1e-12)")
        assert abs(g1) < 1e-12 * omega

    def test_membrane_couplings_match_transfer_matrix_oracle(self):
        h = 6e-7
        rts = _roots_in(9.0, 22.0, MEM_A0)
        doublet = [r for r in rts if 12.0 < r < 13.2]
        assert len(doublet) == 2
        two_nu = doublet[1] - doublet[0]

        # centered membrane: curvature of either doublet branch against
        # the surface-integral quadratic coupling (self + 3 nearest)
        grid = _membrane_grid(MEM_A0)
        pert = _membrane_pert(grid, MEM_A0)
        g2_errs = []
        for w0 in doublet:
            vals = [_track_root(k * h, w0) for k in (-2, -1, 0, 1, 2)]
            _, d2 = _fd5(vals, h)
            mode = _membrane_mode(w0, MEM_A0, grid)
            norm = inner_product(mode, pert.epsilon, mode).real
            g1 = _surface_g1(mode, pert)
            total = 3.0 * g1 * g1 / w0
            partners = sorted(
                (r for r in rts if r != w0), key=lambda r: abs(r - w0)
            )[:3]
            for wj in partners:
                other = _membrane_mode(wj, MEM_A0, grid)
                nj = inner_product(other, pert.epsilon, other).real
                melem = boundary_overlap((other, mode), pert)
                total += (
                    w0 ** 3 / (w0 * w0 - wj * wj)
                    * abs(melem) ** 2 / (norm * nj)
                )
            g2_errs.append(abs(total - d2) / abs(d2))

        # displaced membrane: linear pull of both split branches against
        # the tracked-root slope
        a1 = MEM_A0 + 0.004
        grid1 = _membrane_grid(a1)
        pert1 = _membrane_pert(grid1, a1)
        g1_errs = []
        for w0 in _roots_in(11.5, 13.5, a1):
            vals = [_track_root(0.004 + k * h, w0) for k in (-2, -1, 0, 1, 2)]
            d1, _ = _fd5(vals, h)
            g1 = _surface_g1(_membrane_mode(w0, a1, grid1), pert1)
            g1_errs.append(abs(g1 - d1) / abs(d1))

        ok = max(g2_errs) <= 0.02 and max(g1_errs) <= 0.02
        _line(
            8,
            ok,
            f"(b) 2nu={two_nu:.6f}, G2 errs "
            f"{[f'{e * 100:.2f}%' for e in g2_errs]}, G1 errs "
            f"{[f'{e * 100:.2f}%' for e in g1_errs]} (bound 2%)",
        )
        assert max(g2_errs) <= 0.02, g2_errs
        assert max(g1_errs) <= 0.02, g1_errs


class TestCriterion9:
    def test_reference_point_margins(self, ref_params):
        # the measurement-over-thermal margin is quoted against the
        # ground-state thermal rate, so evaluate the report at n = 0
        rep = feasibility(ref_params, 0)
        got = {
            "meas_over_thermal": rep.ratios["meas_over_thermal"],
            "ground_linear": rep.ratios["ground_linear"],
            "ground_quadratic": rep.ratios["ground_quadratic"],
            "linear_limit": rep.ratios["linear_limit"],
            "sideband_resolution": rep.ratios["sideband_resolution"],
        }
        want = {
            "meas_over_thermal": 32.0,
            "ground_linear": 8.0,
            "ground_quadratic": 16.0,
            "linear_limit": 16.0,
            "sideband_resolution": 512.0,
        }
        ok = got == want
        _line(9, ok, f"margins={got}")
        assert got == want
