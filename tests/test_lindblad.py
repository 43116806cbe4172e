"""Master-equation generators, integration, and rate extraction."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from qndsim.cavity import susceptibility
from qndsim.constants import TWO_PI
from qndsim.fock import (
    DensityMatrix,
    diagonal_state,
    fock_state,
    ladder,
    product_state,
    thermal_state,
)
from qndsim.lindblad import (
    BIPARTITE_CHANNELS,
    REDUCED_CHANNELS,
    LindbladGenerator,
    bipartite_generator,
    evolve,
    extract_transition_rate,
    reduced_generator,
    steady_state,
)
from qndsim.rates import channel_coefficients, transition_rates

from conftest import make_ref


def random_density(dim: int, rng) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def apply_superoperator(gen: LindbladGenerator) -> np.ndarray:
    """Dense superoperator built column by column through ``gen.apply``."""
    d = gen.dim
    basis = np.zeros((d, d), dtype=complex)
    sup = np.empty((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            basis[a, b] = 1.0
            sup[:, a * d + b] = gen.apply(basis).reshape(-1)
            basis[a, b] = 0.0
    return sup


def random_generator(dim: int, rng) -> LindbladGenerator:
    """Complex, non-symmetric operators: catches a lost transpose or conj."""
    def cplx():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    h = cplx()
    return LindbladGenerator(
        hamiltonian=h + h.conj().T,
        channels=[(cplx(), 0.7), (cplx(), 1.9)],
        time_scale=1.0,
    )


class TestReducedGenerator:
    def test_channel_order_frozen(self, ref_params):
        assert REDUCED_CHANNELS == (
            "thermal_up",
            "thermal_down",
            "opt_up1",
            "opt_down1",
            "opt_up2",
            "opt_down2",
            "dephasing",
        )
        gen = reduced_generator(ref_params, 8)
        assert gen.labels == REDUCED_CHANNELS
        assert len(gen.channels) == 7

    def test_weights_are_the_channel_coefficients(self, ref_params):
        # the six jump weights come from the one float statement, exactly
        for p in (ref_params, make_ref(delta_hz=3e8, nbar_th=3.0)):
            weights = [w for _, w in reduced_generator(p, 8).channels]
            assert weights[:6] == channel_coefficients(p).tolist()

    def test_diagonal_restriction_is_the_rate_matrix(self, ref_params):
        # acting on |n><n| must reproduce the analytic birth-death(+2)
        # rates: outflow on the diagonal, inflow two rows away
        dim = 12
        p = ref_params
        gen = reduced_generator(p, dim)
        gm, nth = p.gamma_m, p.nbar_th
        for n in range(dim - 2):
            out = np.real(np.diag(gen.apply(fock_state(dim, n).entries)))
            r = transition_rates(p, n)
            assert out[n] == pytest.approx(-r.total_decoherence, rel=1e-12)
            # single-quantum inflow mixes the thermal and optical b(†) rates
            assert out[n + 1] == pytest.approx(
                gm * nth * (n + 1) + r.gamma_up1, rel=1e-12
            )
            assert out[n + 2] == pytest.approx(r.gamma_up2, rel=1e-12)
            if n >= 1:
                assert out[n - 1] == pytest.approx(
                    gm * (nth + 1) * n + r.gamma_down1, rel=1e-12
                )
            if n >= 2:
                assert out[n - 2] == pytest.approx(r.gamma_down2, rel=1e-12)

    def test_ground_state_outflow_matches_rates(self, ref_params):
        gen = reduced_generator(ref_params, 10)
        out = np.real(np.diag(gen.apply(fock_state(10, 0).entries)))
        r0 = transition_rates(ref_params, 0)
        total = r0.gamma_th + r0.gamma_up1 + r0.gamma_up2
        assert out[0] == pytest.approx(-total, rel=1e-12)

    def test_hermitian_part_collapses_on_resonance(self, ref_params):
        # delta = 0: the only surviving frequency pull is the static
        # two-photon shift per photon, g2^2 Im{chi(2 w_m)} (n + 1/2)
        p = ref_params
        dim = 9
        gen = reduced_generator(p, dim)
        _, _, n_op = ladder(dim)
        shift = p.nbar_photon * p.g2**2 * susceptibility(
            2.0 * p.omega_m, 0.0, p.kappa
        ).imag
        expect = shift * (n_op + 0.5 * np.eye(dim))
        # the truncation corner (top two states) deviates by construction
        inner = slice(0, dim - 2)
        assert np.allclose(gen.hamiltonian[inner, inner], expect[inner, inner],
                           rtol=1e-12, atol=0.0)

    def test_hamiltonian_commutes_with_number(self, ref_params):
        gen = reduced_generator(make_ref(delta_hz=7e7), 8)
        _, _, n_op = ladder(8)
        comm = gen.hamiltonian @ n_op - n_op @ gen.hamiltonian
        assert np.max(np.abs(comm)) == 0.0

    def test_pure_decay_limit(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0, nbar_th=0.0)
        gen = reduced_generator(p, 4)
        weights = {lbl: w for lbl, (_, w) in zip(gen.labels, gen.channels)}
        assert weights["thermal_down"] == pytest.approx(p.gamma_m)
        for lbl, w in weights.items():
            if lbl != "thermal_down":
                assert w == 0.0

    def test_minimum_dimension(self, ref_params):
        with pytest.raises(ValueError):
            reduced_generator(ref_params, 1)


@pytest.fixture(scope="module")
def gen():
    return reduced_generator(make_ref(delta_hz=3e7), 7)


class TestGeneratorInvariants:

    def test_trace_preservation(self, gen):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = random_density(7, rng)
            out = gen.apply(rho)
            assert abs(np.trace(out)) < 1e-12 * gen.rate_scale()

    def test_hermiticity_preservation(self, gen):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rho = random_density(7, rng)
            out = gen.apply(rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12 * gen.rate_scale()

    def test_linearity(self, gen):
        rng = np.random.default_rng(13)
        r1, r2 = random_density(7, rng), random_density(7, rng)
        a, b = 0.3, -1.7
        lhs = gen.apply(a * r1 + b * r2)
        rhs = a * gen.apply(r1) + b * gen.apply(r2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * gen.rate_scale())

    def test_diagonal_closure(self, gen):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = rng.random(7)
            rho = np.diag((p / p.sum()).astype(complex))
            out = gen.apply(rho)
            off = out - np.diag(np.diag(out))
            assert np.max(np.abs(off)) < 1e-12 * gen.rate_scale()

    def test_qnd_purity(self, ref_params):
        # keep only the number channel and the Hermitian part: every
        # population must be exactly frozen, coherences may decay
        full = reduced_generator(ref_params, 7)
        keep = [
            ch for ch, lbl in zip(full.channels, full.labels) if lbl == "dephasing"
        ]
        gen = LindbladGenerator(
            hamiltonian=full.hamiltonian,
            channels=keep,
            time_scale=full.time_scale,
            labels=("dephasing",),
        )
        rng = np.random.default_rng(15)
        for _ in range(10):
            rho = random_density(7, rng)
            out = gen.apply(rho)
            assert np.max(np.abs(np.diag(out))) < 1e-12 * gen.rate_scale()

    def test_rejects_invalid_construction(self, ref_params):
        b, bdag, n_op = ladder(4)
        with pytest.raises(ValueError):
            LindbladGenerator(
                hamiltonian=b, channels=[(b, 1.0)], time_scale=1.0
            )  # non-Hermitian H
        with pytest.raises(ValueError):
            LindbladGenerator(
                hamiltonian=n_op, channels=[(b, -1.0)], time_scale=1.0
            )  # negative weight
        with pytest.raises(ValueError, match="weights"):
            LindbladGenerator(
                hamiltonian=n_op, channels=[(b, math.nan)], time_scale=1.0
            )
        with pytest.raises(ValueError, match="time_scale"):
            LindbladGenerator(
                hamiltonian=n_op, channels=[(b, 1.0)], time_scale=math.nan
            )
        h = n_op.astype(complex)
        h[2, 2] = math.nan
        with pytest.raises(ValueError, match="hamiltonian"):
            LindbladGenerator(hamiltonian=h, channels=[(b, 1.0)], time_scale=1.0)
        o = b.copy()
        o[0, 1] = math.nan
        with pytest.raises(ValueError, match="operator"):
            LindbladGenerator(
                hamiltonian=n_op, channels=[(o, 1.0)], time_scale=1.0
            )

    @pytest.mark.parametrize("labels", [("thermal_down",), ("dephasing", 3)])
    def test_labels_name_every_channel_or_none(self, labels):
        b, bdag, n_op = ladder(4)
        channels = [(b, 1.0), (bdag, 0.5)]
        with pytest.raises(ValueError, match="one string per channel"):
            LindbladGenerator(
                hamiltonian=n_op, channels=channels, time_scale=1.0, labels=labels
            )
        for ok in ((), ("thermal_down", "thermal_up")):
            gen = LindbladGenerator(
                hamiltonian=n_op, channels=channels, time_scale=1.0, labels=ok
            )
            assert gen.labels == ok


class TestSuperoperator:
    @pytest.mark.parametrize(
        "make_gen",
        [
            lambda: reduced_generator(make_ref(), 9),
            lambda: reduced_generator(make_ref(delta_hz=2e9, nbar_th=3.0), 9),
            lambda: bipartite_generator(make_ref(), 3, 4),
            lambda: random_generator(5, np.random.default_rng(21)),
        ],
        ids=["reduced_reference", "reduced_sideband", "bipartite", "random"],
    )
    def test_kronecker_form_matches_apply(self, make_gen):
        gen = make_gen()
        sup = gen.superoperator()
        assert sup.format == "csr"
        err = np.max(np.abs(sup.toarray() - apply_superoperator(gen)))
        assert err <= 1e-14 * gen.rate_scale()


class TestBipartiteGenerator:
    def test_channel_labels(self, ref_params):
        gen = bipartite_generator(ref_params, 3, 4)
        assert gen.labels == BIPARTITE_CHANNELS == (
            "cavity_decay",
            "thermal_down",
            "thermal_up",
        )
        assert gen.dim == 12
        assert gen.subsystem_dims == (3, 4)

    def test_no_drive_means_no_coupling(self):
        p = make_ref(nbar_photon=0.0, delta_hz=1e8)
        gen = bipartite_generator(p, 3, 4)
        _, _, n_d = ladder(3)
        _, _, n_b = ladder(4)
        expect = p.delta * np.kron(n_d, np.eye(4)) + p.omega_m * np.kron(
            np.eye(3), n_b
        )
        assert np.allclose(gen.hamiltonian, expect, rtol=1e-12)

    def test_decoupled_mechanics_follows_thermal_chain(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0)
        gen = bipartite_generator(p, 3, 5)
        rho = product_state(fock_state(3, 0), fock_state(5, 2))
        out = gen.apply(rho.entries)
        # mechanical marginal of the derivative: thermal rates at n = 2
        marg = np.real(
            np.diag(np.trace(out.reshape(3, 5, 3, 5), axis1=0, axis2=2))
        )
        gm, nth = p.gamma_m, p.nbar_th
        assert marg[1] == pytest.approx(gm * (nth + 1) * 2, rel=1e-12)
        assert marg[3] == pytest.approx(gm * nth * 3, rel=1e-12)
        assert marg[2] == pytest.approx(-(gm * (nth + 1) * 2 + gm * nth * 3),
                                        rel=1e-12)

    def test_mech_populations_marginal(self, ref_params):
        gen = bipartite_generator(ref_params, 2, 3)
        rho = product_state(
            diagonal_state([0.5, 0.5]), diagonal_state([0.2, 0.3, 0.5])
        )
        pops = gen.mech_populations(rho.entries)
        assert np.allclose(pops, [0.2, 0.3, 0.5], rtol=1e-12)


class TestEvolve:
    def test_pure_decay_analytic(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0, nbar_th=0.0)
        gen = reduced_generator(p, 4)
        res = evolve(gen, fock_state(4, 1), 3.0 / p.gamma_m, grid=61)
        expect = np.exp(-p.gamma_m * res.times)
        assert np.max(np.abs(res.populations[:, 1] - expect)) < 1e-6
        assert res.max_trace_error < 1e-8
        assert not res.failed

    def test_thermal_steady_state_reached(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0)
        dim = 25
        gen = reduced_generator(p, dim)
        res = evolve(gen, fock_state(dim, 3), 30.0 / p.gamma_m, grid=41)
        mean = res.populations[-1] @ np.arange(dim)
        assert mean == pytest.approx(0.25, abs=1e-6)

    def test_initial_ground_state_slope(self, ref_params):
        # d p0/dt at t = 0 is minus the total ground-state outflow
        gen = reduced_generator(ref_params, 13)
        gth0 = ref_params.nbar_th * ref_params.gamma_m
        res = evolve(gen, fock_state(13, 0), 5.0 / gth0, grid=501)
        dt = res.times[1] - res.times[0]
        p0 = res.populations[:, 0]
        # second-order forward stencil; the plain difference quotient
        # picks up a 3% curvature bias at this grid spacing
        slope = (-3.0 * p0[0] + 4.0 * p0[1] - p0[2]) / (2.0 * dt)
        r0 = transition_rates(ref_params, 0)
        total = r0.gamma_th + r0.gamma_up1 + r0.gamma_up2
        assert slope == pytest.approx(-total, rel=0.01)

    def test_trace_is_reported_not_repaired(self, ref_params):
        gen = reduced_generator(ref_params, 8)
        res = evolve(gen, fock_state(8, 0), 1e-3, grid=11)
        assert np.all(res.trace_errors >= 0.0)
        assert res.max_trace_error < 1e-4

    def test_validation(self, ref_params):
        gen = reduced_generator(ref_params, 4)
        with pytest.raises(ValueError):
            evolve(gen, fock_state(4, 0), 0.0)
        with pytest.raises(ValueError):
            evolve(gen, fock_state(4, 0), 1.0, grid=1)
        with pytest.raises(ValueError):
            evolve(gen, fock_state(5, 0), 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                evolve(gen, fock_state(4, 0), bad)

    def test_diagnostics_match_per_point_loop(self, ref_params):
        gen = bipartite_generator(ref_params, 2, 3)
        rho0 = product_state(fock_state(2, 0), fock_state(3, 1))
        res = evolve(gen, rho0, 2e-9, grid=7, store_states=True)
        # the batched reductions may round differently from the loop, by
        # a few ulp of each quantity (the trace is 1, its ulp 2.2e-16)
        for k, rho in enumerate(res.snapshots):
            herm = (rho + rho.conj().T) / 2.0
            assert np.array_equal(res.populations[k], gen.mech_populations(rho))
            assert res.trace_errors[k] == pytest.approx(
                abs(np.trace(rho) - 1.0), rel=1e-14, abs=1e-15
            )
            assert res.hermiticity_errors[k] == pytest.approx(
                np.max(np.abs(rho - rho.conj().T)), rel=1e-14, abs=1e-15
            )
            assert res.min_eigenvalues[k] == pytest.approx(
                np.linalg.eigvalsh(herm)[0], abs=1e-15
            )

    def test_json_dict_shape(self, ref_params):
        gen = reduced_generator(ref_params, 4)
        res = evolve(gen, fock_state(4, 0), 1e-3, grid=5)
        d = res.to_json_dict()
        assert set(d) == {"times_s", "populations", "diagnostics"}
        assert len(d["times_s"]) == 5
        assert len(d["populations"][0]) == 4


def whole_grid_evolve(gen, rho0, t_final, grid=201):
    """``evolve`` as one ``solve_ivp(t_eval=...)`` call whose stack of
    every grid state is reduced at once: times, populations, trace,
    Hermiticity and eigenvalue columns, and the states."""
    ts = gen.time_scale
    sup = gen.superoperator() / ts
    sol = integrate.solve_ivp(
        lambda _tau, y: sup @ y, (0.0, t_final * ts),
        rho0.entries.reshape(-1).astype(complex), method="DOP853",
        t_eval=np.linspace(0.0, t_final * ts, grid), rtol=1e-8, atol=1e-12,
    )
    rhos = sol.y.T.reshape(-1, gen.dim, gen.dim)
    adj = rhos.conj().transpose(0, 2, 1)
    return (
        sol.t / ts,
        gen.mech_populations(rhos),
        np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0),
        np.max(np.abs(rhos - adj), axis=(1, 2)),
        np.linalg.eigvalsh((rhos + adj) / 2.0)[:, 0],
        list(rhos),
    )


# criterion 5's compressed units, kappa = 1 rad/s, as in master_equation
BIPARTITE = dict(
    omega_m_hz=10.0 / TWO_PI, kappa_hz=1.0 / TWO_PI, gamma_m_hz=5e-4 / TWO_PI,
    g1_hz=0.22389 / TWO_PI, g2_hz=0.283 / TWO_PI, nbar_th=0.2, nbar_photon=1.0,
)


class TestStreamedEvolve:
    """``evolve`` reduces its states 16 at a time and keeps none of them."""

    @pytest.mark.parametrize("dims, t_final", [
        ((12,), 1e-3), ((30,), 1e-2), ((4, 6), 10.0),
    ], ids=["reduced-12", "reduced-30", "bipartite-4x6"])
    def test_blocks_match_the_whole_grid(self, dims, t_final):
        if len(dims) == 1:
            gen = reduced_generator(make_ref(), dims[0])
            rho0 = thermal_state(dims[0], 0.25)
        else:
            gen = bipartite_generator(make_ref(**BIPARTITE), *dims)
            rho0 = product_state(*(fock_state(d, 0) for d in dims))
        times, pops, trace, herm, eig, states = whole_grid_evolve(gen, rho0, t_final)
        res = evolve(gen, rho0, t_final, store_states=True)
        assert np.array_equal(res.times, times)
        assert np.array_equal(res.populations, pops)
        assert np.array_equal(res.hermiticity_errors, herm)
        assert np.array_equal(res.min_eigenvalues, eig)
        # np.trace sums a block's diagonal in another order than the
        # whole stack's, which moves the last bit of some rows
        assert np.max(np.abs(res.trace_errors - trace)) <= 1e-15
        assert len(res.snapshots) == len(states)
        assert all(map(np.array_equal, res.snapshots, states))
        # copies, not views of the buffer the blocks are written into
        assert len({s.ctypes.data for s in res.snapshots}) == len(states)

    def test_memory_does_not_grow_with_the_grid(self, ref_params):
        # a stack of 2001 states at d = 30 is 16 * 2001 * 900 B = 28.8 MB;
        # the result rows are about 0.5 MB, twice while concatenated
        gen = reduced_generator(ref_params, 30)
        rho0 = thermal_state(30, 0.25)
        evolve(gen, rho0, 1e-3, grid=2)  # imports outside the measurement

        def peak(grid):
            tracemalloc.start()
            try:
                evolve(gen, rho0, 1e-3, grid=grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2001) - peak(21) < 4e6


class TestSteadyState:
    def test_thermal_fixed_point_is_bose_einstein(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0)
        dim = 22
        rho = steady_state(reduced_generator(p, dim))
        expect = thermal_state(dim, 0.25).populations()
        assert np.allclose(rho.populations(), expect, atol=1e-10)

    def test_pure_decay_fixed_point_is_ground(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0, nbar_th=0.0)
        rho = steady_state(reduced_generator(p, 6))
        assert rho.populations()[0] == pytest.approx(1.0, abs=1e-10)

    def test_reference_fixed_point_diagonal_and_heated(self, ref_params):
        # the photon-induced channels pair equal up/down coefficients, an
        # infinite-temperature bath component: the mean rises above the
        # bath occupancy (0.333 vs 0.25 here)
        dim = 30
        rho = steady_state(reduced_generator(ref_params, dim))
        off = rho.entries - np.diag(np.diag(rho.entries))
        assert np.max(np.abs(off)) < 1e-12
        mean = rho.populations() @ np.arange(dim)
        assert mean == pytest.approx(0.3326, abs=0.002)
        assert mean > 0.25

    def test_degenerate_null_space_rejected(self):
        # no channels at all: every diagonal state is stationary
        _, _, n_op = ladder(3)
        gen = LindbladGenerator(
            hamiltonian=np.zeros((3, 3)), channels=[], time_scale=1.0
        )
        with pytest.raises(ValueError, match="non-unique"):
            steady_state(gen)

    def test_numerically_degenerate_generator_rejected(self):
        # two decaying blocks {0, 1} and {2, 3}, each with its own fixed
        # point, seen in a random basis: no structural zero gives the
        # degeneracy away, only the LU pivot gap does
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        low = np.zeros((4, 4), dtype=complex)
        low[0, 1] = 1.0
        high = np.zeros((4, 4), dtype=complex)
        high[2, 3] = 1.0
        gen = LindbladGenerator(
            hamiltonian=np.zeros((4, 4)),
            channels=[(u @ low @ u.conj().T, 1.0), (u @ high @ u.conj().T, 2.0)],
            time_scale=1.0,
        )
        with pytest.raises(ValueError, match="non-unique.*gap.*1e-10"):
            steady_state(gen)


class TestExtractTransitionRate:
    def test_thermal_ground_to_first(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0)
        gen = reduced_generator(p, 8)
        rate = extract_transition_rate(
            gen, 0, 1, t_start=0.0, t_final=0.01 / p.gamma_m
        )
        assert rate == pytest.approx(p.nbar_th * p.gamma_m, rel=0.01)

    def test_long_window_rejected_as_nonlinear(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0)
        gen = reduced_generator(p, 8)
        with pytest.raises(ValueError, match="window"):
            extract_transition_rate(
                gen, 0, 1, t_start=0.0, t_final=30.0 / p.gamma_m
            )

    def test_bipartite_from_state_spec(self):
        p = make_ref(g1_hz=0.0, g2_hz=0.0)
        gen = bipartite_generator(p, 2, 5)
        rate = extract_transition_rate(
            gen, (0, 0), 1, t_start=0.0, t_final=0.01 / p.gamma_m
        )
        assert rate == pytest.approx(p.nbar_th * p.gamma_m, rel=0.01)

    def test_window_validation(self, ref_params):
        gen = reduced_generator(ref_params, 4)
        with pytest.raises(ValueError):
            extract_transition_rate(gen, 0, 1, t_start=1.0, t_final=0.5)

    def test_to_state_out_of_range(self, ref_params):
        gen = reduced_generator(ref_params, 6)
        for bad in (9, 6, -1):
            with pytest.raises(ValueError, match=r"0\.\.5"):
                extract_transition_rate(gen, 0, bad, t_start=0.0, t_final=1e-3)
        bip = bipartite_generator(ref_params, 2, 3)
        with pytest.raises(ValueError, match=r"0\.\.2"):
            extract_transition_rate(bip, (0, 0), 3, t_start=0.0, t_final=1e-9)
