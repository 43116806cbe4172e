"""Stochastic jump trajectories: chain sampler, unraveling, ensembles."""

import json
import math
import os

import numpy as np
import pytest

from qndsim import trajectories
from qndsim.constants import TWO_PI
from qndsim.fock import ladder
from qndsim.lindblad import LindbladGenerator, evolve, reduced_generator
from qndsim.rates import measurement_rate, transition_rates
from qndsim.trajectories import (
    CHANNELS,
    EnsembleStats,
    Trajectory,
    TruncationError,
    channel_coefficients,
    default_n_cap,
    ensemble,
    resolve_threads,
    simulate_jump_trajectory,
    simulate_quantum_jump,
    write_events_csv,
    write_staircase_csv,
    write_trajectory_json,
)

from conftest import make_ref


def decay_only_params(gamma_m_hz=1e3):
    return make_ref(g1_hz=0.0, g2_hz=0.0, nbar_th=0.0, gamma_m_hz=gamma_m_hz)


class TestChannelCoefficients:
    def test_frozen_order_and_cross_module_equality(self, ref_params):
        c = channel_coefficients(ref_params)
        assert CHANNELS == (
            "thermal_up",
            "thermal_down",
            "opt_up1",
            "opt_down1",
            "opt_up2",
            "opt_down2",
        )
        assert c.shape == (6,)
        p = ref_params
        r1 = transition_rates(p, 1)
        # state-1 rates expose each bare coefficient once
        assert c[0] * 2 == pytest.approx(p.gamma_m * p.nbar_th * 2, rel=1e-12)
        assert c[1] * 1 == pytest.approx(p.gamma_m * (p.nbar_th + 1), rel=1e-12)
        assert c[2] * 2 == pytest.approx(r1.gamma_up1, rel=1e-12)
        assert c[3] * 1 == pytest.approx(r1.gamma_down1, rel=1e-12)
        assert c[4] * 6 == pytest.approx(r1.gamma_up2, rel=1e-12)
        assert c[5] * 0 == r1.gamma_down2 == 0.0

    def test_default_cap(self, ref_params):
        assert default_n_cap(ref_params) == 52


class TestJumpChain:
    def test_single_decay_event(self):
        # no optical channels, zero-temperature bath: |1> decays exactly once
        p = decay_only_params()
        traj = simulate_jump_trajectory(p, 1, 20.0 / p.gamma_m, seed=5)
        assert traj.n_events == 1
        assert CHANNELS[traj.channels[0]] == "thermal_down"
        assert traj.new_ns[0] == 0
        traj.validate()

    def test_decay_waiting_time_is_exponential(self):
        # ensemble mean of the first-passage time: 1/gamma_m +- 3 sigma,
        # sigma = mean/sqrt(M) for an exponential
        p = decay_only_params()
        m = 400
        waits = []
        for i in range(m):
            traj = simulate_jump_trajectory(p, 1, 50.0 / p.gamma_m, seed=1000 + i)
            assert traj.n_events == 1
            waits.append(traj.times[0])
        mean = np.mean(waits)
        expect = 1.0 / p.gamma_m
        assert abs(mean - expect) < 3.0 * expect / math.sqrt(m)

    def test_determinism(self, ref_params):
        a = simulate_jump_trajectory(ref_params, 0, 0.1, seed=99)
        b = simulate_jump_trajectory(ref_params, 0, 0.1, seed=99)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.new_ns, b.new_ns)
        assert np.array_equal(a.channels, b.channels)
        c = simulate_jump_trajectory(ref_params, 0, 0.1, seed=100)
        assert not np.array_equal(a.times, c.times)

    def test_validate_runs_clean_on_simulated_records(self, ref_params):
        for seed in range(20):
            simulate_jump_trajectory(ref_params, 0, 0.05, seed=seed).validate()

    def test_truncation_error(self):
        p = make_ref(nbar_th=50.0)
        with pytest.raises(TruncationError, match="truncation reached"):
            simulate_jump_trajectory(p, 0, 10.0, seed=1, n_cap=4)

    def test_rejects_bad_inputs(self, ref_params):
        with pytest.raises(ValueError):
            simulate_jump_trajectory(ref_params, -1, 1.0, seed=1)
        with pytest.raises(ValueError):
            simulate_jump_trajectory(ref_params, 0, 0.0, seed=1)
        with pytest.raises(ValueError):
            simulate_jump_trajectory(ref_params, 60, 1.0, seed=1, n_cap=52)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                simulate_jump_trajectory(ref_params, 0, bad, seed=1)


class TestTrajectoryRecord:
    def make_hand_built(self):
        # 0 --(up at t=1)--> 1 --(down at t=3)--> 0, horizon 4
        return Trajectory(
            seed=0,
            initial_n=0,
            t_final=4.0,
            times=np.array([1.0, 3.0]),
            new_ns=np.array([1, 0]),
            channels=np.array([0, 1]),
        )

    def test_events_property(self):
        traj = self.make_hand_built()
        assert traj.events == [(1.0, 1, 0), (3.0, 0, 1)]
        assert traj.n_events == 2

    def test_occupancy_times(self):
        occ = self.make_hand_built().occupancy_times(3)
        assert occ[0] == pytest.approx(2.0)  # [0,1) and [3,4)
        assert occ[1] == pytest.approx(2.0)  # [1,3)
        assert occ[2] == 0.0

    def test_boxcar_means(self):
        centers, means = self.make_hand_built().boxcar(2.0)
        assert np.allclose(centers, [1.0, 3.0])
        # first window: 1s at n=0 then 1s at n=1; second: 1s at 1, 1s at 0
        assert np.allclose(means, [0.5, 0.5])
        centers, means = self.make_hand_built().boxcar(1.0)
        assert np.allclose(means, [0.0, 1.0, 1.0, 0.0])

    def test_boxcar_truncated_last_bin(self):
        traj = Trajectory(
            seed=0,
            initial_n=2,
            t_final=2.5,
            times=np.array([]),
            new_ns=np.array([]),
            channels=np.array([]),
        )
        centers, means = traj.boxcar(1.0)
        assert len(centers) == 3
        assert centers[-1] == pytest.approx(2.25)
        assert np.allclose(means, [2.0, 2.0, 2.0])

    def test_validate_catches_corruption(self):
        bad = Trajectory(
            seed=0,
            initial_n=0,
            t_final=4.0,
            times=np.array([3.0, 1.0]),
            new_ns=np.array([1, 2]),
            channels=np.array([0, 0]),
        )
        with pytest.raises(ValueError, match="increasing"):
            bad.validate()
        bad = Trajectory(
            seed=0,
            initial_n=0,
            t_final=4.0,
            times=np.array([1.0]),
            new_ns=np.array([2]),
            channels=np.array([0]),  # +1 channel cannot reach n=2
        )
        with pytest.raises(ValueError, match="inconsistent"):
            bad.validate()
        bad = Trajectory(
            seed=0,
            initial_n=0,
            t_final=4.0,
            times=np.array([5.0]),
            new_ns=np.array([1]),
            channels=np.array([0]),
        )
        with pytest.raises(ValueError, match="t_final"):
            bad.validate()
        for ch in (-1, 7):  # -1 would index CHANNEL_DELTAS from the end
            bad = Trajectory(
                seed=0,
                initial_n=2,
                t_final=4.0,
                times=np.array([1.0]),
                new_ns=np.array([0]),
                channels=np.array([ch]),
            )
            with pytest.raises(ValueError, match="channel index %d" % ch):
                bad.validate()


def walk_reduce(trajs, n_states):
    """Reference reduction: the per-event stay walk, one event at a time."""
    counts = np.zeros((n_states, len(CHANNELS)), dtype=np.int64)
    time_in = np.zeros(n_states)
    completed = np.zeros(n_states)
    visits = np.zeros(n_states, dtype=np.int64)
    for traj in trajs:
        t_prev, s = 0.0, traj.initial_n
        for k in range(traj.n_events):
            t = float(traj.times[k])
            if s < n_states:
                time_in[s] += t - t_prev
                completed[s] += t - t_prev
                counts[s, int(traj.channels[k])] += 1
                visits[s] += 1
            t_prev, s = t, int(traj.new_ns[k])
        if s < n_states:
            time_in[s] += traj.t_final - t_prev
            visits[s] += 1
    return counts, time_in, completed, visits


class TestStayReduction:
    """The segment-based reductions against the per-event walk, bit for bit."""

    def assert_matches_walk(self, stats, trajs):
        counts, time_in, completed, visits = walk_reduce(trajs, len(stats.visits))
        assert np.array_equal(stats.counts, counts)
        assert np.array_equal(stats.visits, visits)
        assert stats.time_in_state.tobytes() == time_in.tobytes()
        assert stats.completed_dwell.tobytes() == completed.tobytes()
        for traj in trajs:
            occ = walk_reduce([traj], len(stats.visits))[1]
            assert traj.occupancy_times(len(occ)).tobytes() == occ.tobytes()

    def test_jump_chain_ensemble(self, ref_params):
        stats, trajs = ensemble(
            ref_params, 0, 0.05, 12, seed_base=3, return_trajectories=True
        )
        assert sum(t.n_events for t in trajs) > 1000
        self.assert_matches_walk(stats, trajs)

    def test_quantum_jump_ensemble_below_generator_dim(self):
        # stays at or above n_cap = 3 are dropped, not clipped
        gen = reduced_generator(make_ref(nbar_th=2.0), 10)
        stats, trajs = ensemble(
            gen, 1, 5e-4, 4, seed_base=17, n_cap=3, return_trajectories=True
        )
        assert max(int(t.new_ns.max()) for t in trajs if t.n_events) >= 3
        self.assert_matches_walk(stats, trajs)

    def test_float_typed_empty_record(self, ref_params, monkeypatch):
        # a hand-built record: float event arrays, no events, open stay only
        record = Trajectory(
            seed=0,
            initial_n=2,
            t_final=2.5,
            times=np.array([]),
            new_ns=np.array([]),
            channels=np.array([]),
        )
        states, dwell, ends = record.validate().segments()
        assert states.tolist() == [2] and ends.tolist() == [-1]
        assert dwell.tolist() == [2.5]
        monkeypatch.setattr(
            trajectories, "simulate_jump_trajectory", lambda *a, **k: record
        )
        stats, trajs = ensemble(
            ref_params, 2, 2.5, 1, seed_base=0, return_trajectories=True
        )
        self.assert_matches_walk(stats, trajs)


def boxcar_loop(traj, window):
    """Reference boxcar: spread each stay over its bins, one bin at a time."""
    n_bins = max(1, int(math.ceil(traj.t_final / window)))
    integral = np.zeros(n_bins)
    t_prev, s = 0.0, traj.initial_n
    marks = list(zip(traj.times, traj.new_ns)) + [(traj.t_final, s)]
    for t, n_next in marks:
        t = float(min(t, traj.t_final))
        a, b = t_prev, t
        k = int(a / window)
        while a < b - 1e-300 and k < n_bins:
            edge = min((k + 1) * window, b)
            integral[k] += s * (edge - a)
            a = edge
            k += 1
        t_prev, s = t, int(n_next)
    widths = np.full(n_bins, window)
    widths[-1] = traj.t_final - (n_bins - 1) * window
    centers = (np.arange(n_bins) + 0.5) * window
    centers[-1] = ((n_bins - 1) * window + traj.t_final) / 2.0
    return centers, integral / widths


class TestBoxcarByStay:
    """``Trajectory.boxcar`` against the per-bin loop, bit for bit."""

    def assert_matches_loop(self, traj, window):
        centers, means = traj.boxcar(window)
        ref_centers, ref_means = boxcar_loop(traj, window)
        assert centers.tobytes() == ref_centers.tobytes()
        assert means.tobytes() == ref_means.tobytes()

    def record(self, times, new_ns, t_final=1.0, initial_n=1):
        return Trajectory(
            seed=0,
            initial_n=initial_n,
            t_final=t_final,
            times=np.array(times, dtype=float),
            new_ns=np.array(new_ns, dtype=np.int64),
            channels=np.zeros(len(times), dtype=np.int64),
        )

    @pytest.mark.parametrize("nbar_th", [0.25, 2.0])
    def test_seeded_chains(self, nbar_th):
        params = make_ref(nbar_th=nbar_th)
        t_final = 0.05
        # CLI default; not dividing t_final; 253 rounds the bin count up
        # to a last bin of zero width; one bin wider than the record
        windows = (t_final / 200, 0.0003, t_final / 253, 0.07)
        events = 0
        with np.errstate(invalid="ignore"):
            for seed in range(40):
                traj = simulate_jump_trajectory(params, 0, t_final, seed)
                events += traj.n_events
                for window in windows:
                    self.assert_matches_loop(traj, window)
        assert events > 2000

    def test_hand_built_records(self):
        cases = [
            (self.record([0.25, 0.5], [2, 0]), 0.25),  # events on bin edges
            (self.record([0.3, 0.55, 0.9], [3, 1, 4]), 0.15),  # 0.15 * 7 > 1
            (self.record([0.3, 0.55], [0, 2]), 0.4),  # short last bin
            (self.record([0.3, 0.55], [0, 2]), 2.5),  # window > t_final
            (self.record([], [], t_final=2.5, initial_n=2), 0.7),  # empty
            (self.record([0.4, 1.0], [2, 5]), 0.25),  # event at t_final
            (self.record([0.1, 0.3, 0.7], [2, 1, 3], t_final=0.7), 0.1),
            # int(1.7 / 0.1) is 17 though 1.7 < 17 * 0.1: the stay from 1.7
            # starts in bin 17 with the sliver below its edge
            (self.record([1.7, 1.85], [3, 0], t_final=2.0), 0.1),
        ]
        for traj, window in cases:
            self.assert_matches_loop(traj, window)

    @pytest.mark.parametrize("window", [math.inf, math.nan, 0.0, -0.1])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValueError, match="positive and finite"):
            self.record([0.5], [2]).boxcar(window)


class TestEnsemble:
    def test_count_one_reproduces_single_run(self, ref_params):
        stats, trajs = ensemble(
            ref_params, 0, 0.05, 1, seed_base=77, return_trajectories=True
        )
        solo = simulate_jump_trajectory(ref_params, 0, 0.05, seed=77)
        assert np.array_equal(trajs[0].times, solo.times)
        assert np.array_equal(trajs[0].channels, solo.channels)
        assert stats.n_trajectories == 1

    def test_histogram_normalized_and_rates_non_negative(self, ref_params):
        stats = ensemble(ref_params, 0, 0.1, 20, seed_base=1)
        assert stats.histogram.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(stats.empirical_rates() >= 0.0)
        assert stats.counts.shape == (52, 6)
        assert stats.t_total == pytest.approx(2.0)

    def test_thread_count_invariance(self, ref_params):
        one = ensemble(ref_params, 0, 0.05, 12, seed_base=3, threads=1)
        many = ensemble(ref_params, 0, 0.05, 12, seed_base=3, threads=4)
        a, b = one.to_json_dict(), many.to_json_dict()
        assert a["meta"].pop("threads") == 1
        assert b["meta"].pop("threads") == 4
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_thermal_only_mean_occupation(self):
        # 16 trajectory-seconds at gamma_m/2pi = 1 kHz: 1e5 in units of
        # gamma_m; the time-averaged mean must sit on the bath occupancy
        p = make_ref(g1_hz=0.0, g2_hz=0.0)
        stats = ensemble(p, 0, 0.08, 200, seed_base=11)
        assert stats.t_total * p.gamma_m >= 1e5
        assert abs(stats.mean_occupation() - 0.25) < 0.01

    def test_dwell_times_match_outflow(self, ref_params):
        # empirical mean dwell in n vs 1/(total rate leaving n), 3 sigma
        stats = ensemble(ref_params, 0, 0.2, 100, seed_base=21)
        dwell = stats.mean_dwell()
        leaves = stats.leave_counts
        for n in range(52):
            if stats.visits[n] < 200:
                continue
            expect = 1.0 / transition_rates(ref_params, n).total_decoherence
            sigma = expect / math.sqrt(leaves[n])
            assert abs(dwell[n] - expect) < 3.0 * sigma, f"state {n}"

    def test_regime_ordering_of_dwell_versus_measurement(self):
        # ratio 32: the ground-state dwell exceeds 10 measurement times,
        # so individual jumps are resolvable; ratio 0.32: it does not
        strong = make_ref(nbar_photon=100.0)
        weak = make_ref(nbar_photon=1.0)
        s_stats = ensemble(strong, 0, 0.2, 50, seed_base=5)
        w_stats = ensemble(weak, 0, 0.2, 50, seed_base=5)
        s_dwell = s_stats.mean_dwell()[0]
        w_dwell = w_stats.mean_dwell()[0]
        assert s_dwell >= 10.0 / measurement_rate(strong)
        assert w_dwell < 10.0 / measurement_rate(weak)

    def test_empirical_rates_match_analytic(self, ref_params):
        # per-channel rate estimates over well-visited states, 3 sigma
        # Poisson bands around the analytic coefficients
        stats = ensemble(ref_params, 0, 0.2, 120, seed_base=31)
        coeffs = channel_coefficients(ref_params)
        mult = np.empty((52, 6))
        ns = np.arange(52)
        mult[:, 0] = ns + 1
        mult[:, 1] = ns
        mult[:, 2] = ns + 1
        mult[:, 3] = ns
        mult[:, 4] = (ns + 1) * (ns + 2)
        mult[:, 5] = ns * (ns - 1)
        expect = coeffs[None, :] * mult
        rates = stats.empirical_rates()
        for n in range(52):
            if stats.visits[n] < 500:
                continue
            for c in range(6):
                if expect[n, c] == 0.0:
                    assert stats.counts[n, c] == 0
                    continue
                sigma = expect[n, c] / math.sqrt(max(stats.counts[n, c], 1))
                assert abs(rates[n, c] - expect[n, c]) < 3.0 * sigma, (n, c)

    def test_rejects_bad_count_and_source(self, ref_params):
        with pytest.raises(ValueError):
            ensemble(ref_params, 0, 1.0, 0, seed_base=1)
        with pytest.raises(TypeError):
            ensemble("params", 0, 1.0, 1, seed_base=1)


class TestResolveThreads:
    def test_explicit_wins(self):
        assert resolve_threads(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("QND_THREADS", "2")
        assert resolve_threads() == 2
        monkeypatch.setenv("QND_THREADS", "junk")
        with pytest.raises(ValueError, match="QND_THREADS"):
            resolve_threads()

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv("QND_THREADS", raising=False)
        assert resolve_threads(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_threads(-1)


class TestQuantumJump:
    def test_pure_decay_single_jump(self):
        p = decay_only_params()
        gen = reduced_generator(p, 4)
        psi0 = np.zeros(4, dtype=complex)
        psi0[1] = 1.0
        traj = simulate_quantum_jump(gen, psi0, 20.0 / p.gamma_m, seed=9)
        assert traj.n_events == 1
        assert CHANNELS[traj.channels[0]] == "thermal_down"
        traj.validate()

    def test_pure_decay_waiting_time(self):
        p = decay_only_params()
        gen = reduced_generator(p, 4)
        psi0 = np.zeros(4, dtype=complex)
        psi0[1] = 1.0
        m = 300
        waits = [
            simulate_quantum_jump(gen, psi0, 50.0 / p.gamma_m, seed=2000 + i).times[0]
            for i in range(m)
        ]
        expect = 1.0 / p.gamma_m
        assert abs(np.mean(waits) - expect) < 3.0 * expect / math.sqrt(m)

    def test_determinism(self, ref_params):
        gen = reduced_generator(ref_params, 20)
        psi0 = np.zeros(20, dtype=complex)
        psi0[0] = 1.0
        a = simulate_quantum_jump(gen, psi0, 0.01, seed=4)
        b = simulate_quantum_jump(gen, psi0, 0.01, seed=4)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.channels, b.channels)

    def test_dephasing_jumps_produce_no_events(self):
        # only the number channel: jumps happen (null counter) but the
        # event record stays empty for a superposition input
        _, _, n_op = ladder(2)
        gen = LindbladGenerator(
            hamiltonian=np.zeros((2, 2)),
            channels=[(n_op, 2.0)],
            time_scale=1.0,
            labels=("dephasing",),
        )
        psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        traj = simulate_quantum_jump(gen, psi0, 5.0, seed=12)
        assert traj.n_events == 0
        assert traj.null_jumps >= 1

    def test_dephasing_ensemble_matches_master_equation(self):
        # ensemble-averaged density matrix under pure dephasing versus
        # direct integration: coherence decays as exp(-w t / 2)
        w = 2.0
        _, _, n_op = ladder(2)
        gen = LindbladGenerator(
            hamiltonian=np.zeros((2, 2)),
            channels=[(n_op, w)],
            time_scale=1.0,
            labels=("dephasing",),
        )
        psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        snap_t = np.array([0.25, 0.5, 1.0])
        m = 4000
        avg = np.zeros((len(snap_t), 2, 2), dtype=complex)
        for i in range(m):
            traj = simulate_quantum_jump(
                gen, psi0, 1.0, seed=3000 + i, snapshot_times=snap_t
            )
            for k in range(len(snap_t)):
                v = traj.snapshots[k]
                avg[k] += np.outer(v, v.conj())
        avg /= m
        rho0 = np.full((2, 2), 0.5, dtype=complex)
        res = evolve(gen, rho0, 1.0, grid=5, store_states=True)
        for k, t in enumerate(snap_t):
            idx = np.argmin(np.abs(res.times - t))
            assert res.times[idx] == pytest.approx(t, rel=1e-9)
            ref = res.snapshots[idx]
            assert np.max(np.abs(avg[k] - ref)) < 0.02
            # populations are exactly preserved in the mean
            assert ref[0, 0] == pytest.approx(0.5, abs=1e-9)
            assert abs(ref[0, 1]) == pytest.approx(
                0.5 * math.exp(-w * t / 2.0), rel=1e-6
            )

    def test_unit_norm_snapshots(self, ref_params):
        gen = reduced_generator(ref_params, 16)
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        snap_t = np.linspace(0.001, 0.009, 5)
        traj = simulate_quantum_jump(gen, psi0, 0.01, seed=6, snapshot_times=snap_t)
        norms = np.linalg.norm(traj.snapshots, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_channel_rates_agree_with_chain(self, ref_params):
        # cross-method: quantum-jump empirical per-channel rates versus
        # the chain sampler's, 3 sigma combined Poisson bands
        gen = reduced_generator(ref_params, 20)
        qj = ensemble(gen, 0, 0.03, 40, seed_base=41, n_cap=20)
        gl = ensemble(ref_params, 0, 0.2, 100, seed_base=42, n_cap=20)
        r_qj, r_gl = qj.empirical_rates(), gl.empirical_rates()
        checked = 0
        for n in range(20):
            if min(qj.visits[n], gl.visits[n]) < 200:
                continue
            for c in range(6):
                cq, cg = qj.counts[n, c], gl.counts[n, c]
                if cq + cg < 50:
                    continue
                sig = math.hypot(
                    r_qj[n, c] / math.sqrt(max(cq, 1)),
                    r_gl[n, c] / math.sqrt(max(cg, 1)),
                )
                assert abs(r_qj[n, c] - r_gl[n, c]) < 3.0 * sig, (n, c)
                checked += 1
        assert checked >= 6

    def test_ensemble_quantum_jump_source(self, ref_params):
        gen = reduced_generator(ref_params, 16)
        stats = ensemble(gen, 0, 0.01, 8, seed_base=51)
        assert stats.meta["sampler"] == "quantum_jump"
        assert stats.histogram.sum() == pytest.approx(1.0)
        assert stats.histogram[0] > 0.5

    def test_rejects_bad_state_vectors(self, ref_params):
        gen = reduced_generator(ref_params, 8)
        with pytest.raises(ValueError, match="nonzero"):
            simulate_quantum_jump(gen, np.zeros(8, dtype=complex), 0.01, seed=1)
        with pytest.raises(ValueError, match="dimension"):
            simulate_quantum_jump(gen, np.zeros(5, dtype=complex), 0.01, seed=1)

    def test_rejects_non_finite_t_final(self, ref_params):
        gen = reduced_generator(ref_params, 8)
        psi0 = np.eye(8, dtype=complex)[0]
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                simulate_quantum_jump(gen, psi0, bad, seed=1)


class TestExports:
    def test_events_csv(self, ref_params, tmp_path):
        traj = simulate_jump_trajectory(ref_params, 0, 0.05, seed=8)
        path = tmp_path / "events.csv"
        write_events_csv(traj, str(path), meta={"seed": 8})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        assert lines[1] == "time_s,n,channel"
        first = lines[2].split(",")
        assert first[2] in CHANNELS
        assert len(lines) == 2 + traj.n_events

    def test_trajectory_json(self, ref_params, tmp_path):
        traj = simulate_jump_trajectory(ref_params, 0, 0.02, seed=8)
        path = tmp_path / "traj.json"
        write_trajectory_json(traj, str(path))
        body = json.loads(path.read_text())
        assert body["seed"] == 8
        assert body["initial_n"] == 0
        assert len(body["events"]) == traj.n_events

    def test_staircase_csv(self, ref_params, tmp_path):
        traj = simulate_jump_trajectory(ref_params, 0, 0.05, seed=8)
        path = tmp_path / "stairs.csv"
        write_staircase_csv(traj, str(path), window=0.05 / 16)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,mean_n"
        assert len(lines) == 1 + 16

    def test_rerun_is_byte_identical(self, ref_params, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        traj = simulate_jump_trajectory(ref_params, 0, 0.05, seed=8)
        write_events_csv(traj, str(a), meta={"seed": 8})
        write_events_csv(traj, str(b), meta={"seed": 8})
        assert a.read_bytes() == b.read_bytes()

    def test_stats_json_roundtrip(self, ref_params, tmp_path):
        stats = ensemble(ref_params, 0, 0.02, 5, seed_base=13)
        path = tmp_path / "stats.json"
        stats.write_json(str(path))
        body = json.loads(path.read_text())
        assert body["channels"] == list(CHANNELS)
        assert body["n_trajectories"] == 5
        assert body["histogram"][0] == pytest.approx(stats.histogram[0])
