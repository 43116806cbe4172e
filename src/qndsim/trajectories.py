"""Stochastic phonon-number trajectories and ensemble statistics.

Two samplers over the same physics: an exact jump-chain (Gillespie) sampler
for the number-diagonal dynamics, and a Monte Carlo wave-function
unraveling of a Lindblad generator that serves as an independent oracle
(its rates come from operator matrix elements, not the analytic
combinatorial formulas).

The unraveling runs only number-diagonal generators with labelled channels,
so its record is exact (see simulate_quantum_jump).
Truncation is never silent: a trajectory that reaches ``n_cap``, from
either sampler, raises TruncationError with its seed, state and cap.

Reproducibility: streams come from the counter-based Philox generator
(numpy implementation), keyed directly by the trajectory seed; ensemble
member i uses seed_base + i. The jump-chain sampler consumes exactly two
uniforms per event (waiting time, then channel), so a seed fully
determines the event list, bit for bit, on either kernel backend.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _io
from ._kernels import get_backend
from ._kernels._gillespie_py import CHANNEL_DELTAS
from .fock import suggest_dim
from .lindblad import LindbladGenerator
from .rates import CHANNELS, channel_coefficients, channel_rates, cooperativities
from .system import SystemParams

# CHANNEL_DELTAS gives the phonon-number change of each of CHANNELS.
_DELTAS = np.array(CHANNEL_DELTAS)
# label -> (the CHANNELS index it records, -1 for none; its operator's n change)
_LABELS = {name: (i, dn) for i, (name, dn) in enumerate(zip(CHANNELS, CHANNEL_DELTAS))}
_LABELS["dephasing"] = (-1, 0)


class TruncationError(RuntimeError):
    """The trajectory state hit the truncation cap; the run is invalid."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based stream keyed by the seed (Philox4x64)."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass
class Trajectory:
    """One realized jump record.

    ``times``/``new_ns``/``channels`` are parallel arrays: entry k says the
    state changed to ``new_ns[k]`` at ``times[k]`` through channel
    ``channels[k]`` (index into CHANNELS). Quantum-jump runs additionally
    count identity-preserving (dephasing) jumps in ``null_jumps`` — those
    never enter the event arrays since they do not move the phonon number
    — and can carry normalized state snapshots on a requested grid.
    """

    seed: int
    initial_n: int
    t_final: float
    times: np.ndarray
    new_ns: np.ndarray
    channels: np.ndarray
    null_jumps: int = 0
    snapshots: np.ndarray | None = None

    @property
    def n_events(self) -> int:
        return len(self.times)

    def segments(self):
        """The record's stays as parallel arrays (state, dwell_s, end_channel).

        Stay k holds ``state[k]`` for ``dwell_s[k]`` seconds and ends
        through channel ``end_channel[k]``; the last stay is the open one
        that runs to ``t_final``, marked with end channel -1.
        """
        states = np.concatenate(([self.initial_n], self.new_ns)).astype(np.int64)
        dwell = np.diff(np.concatenate(([0.0], self.times, [self.t_final])))
        ends = np.concatenate((self.channels, [-1])).astype(np.int64)
        return states, dwell, ends

    def validate(self) -> "Trajectory":
        """Check the event-record invariants; raises on violation."""
        if len(self.times) != len(self.new_ns) or len(self.times) != len(
            self.channels
        ):
            raise ValueError("event arrays must have equal length")
        states, dwell, ends = self.segments()
        if not np.all(dwell[1:-1] > 0):
            raise ValueError("event times must be strictly increasing")
        if self.n_events and (dwell[0] <= 0 or dwell[-1] < 0):
            raise ValueError("event times must lie in (0, t_final]")
        chans = ends[:-1]
        bad = chans[(chans < 0) | (chans >= len(CHANNELS))]
        if len(bad):
            raise ValueError("channel index %d outside 0..5" % bad[0])
        if np.any(states[1:] != states[:-1] + _DELTAS[chans]):
            raise ValueError("state sequence inconsistent with channels")
        if np.any(states < 0):
            raise ValueError("negative phonon number in record")
        return self

    def boxcar(self, window: float):
        """Boxcar-averaged occupation: (bin_center_s, mean_n) arrays.

        Each stay is cut at the bin edges ``k * window`` it crosses and the
        pieces are summed into their bins in (stay, bin) order, so every
        bin's float sum is that of walking the record bin by bin.
        """
        window = float(window)
        if not (window > 0 and math.isfinite(window)):
            raise ValueError("window must be positive and finite")
        # bins start at k * window < t_final; the quotient can round up past
        # an integer and would add a last bin of zero width
        n_bins = math.ceil(self.t_final / window)
        if (n_bins - 1) * window >= self.t_final:
            n_bins -= 1
        n_bins = max(1, n_bins)
        states = self.segments()[0]
        ends = np.minimum(np.append(self.times, self.t_final), self.t_final)
        starts = np.concatenate(([0.0], ends[:-1]))
        # a stay starts in bin int(start / window), or the last bin, and also
        # enters every later bin q < n_bins with edge q * window < end - 1e-300;
        # the last bin ends at t_final, which n_bins * window may fall short of
        edges = np.arange(n_bins + 1) * window
        edges[-1] = self.t_final
        first = np.minimum((starts / window).astype(np.int64), n_bins - 1)
        upper = ends - 1e-300
        last = np.searchsorted(edges[:-1], upper) - 1
        pieces = np.where(starts < upper, 1 + np.maximum(last - first, 0), 0)
        stay = np.repeat(np.arange(len(pieces)), pieces)
        step = np.arange(len(stay)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        k = first[stay] + step
        lo = np.where(step == 0, starts[stay], edges[k])
        hi = np.minimum(edges[k + 1], ends[stay])
        integral = np.zeros(n_bins)
        np.add.at(integral, k, states[stay] * (hi - lo))
        widths = np.full(n_bins, window)
        widths[-1] = self.t_final - (n_bins - 1) * window
        centers = (np.arange(n_bins) + 0.5) * window
        centers[-1] = ((n_bins - 1) * window + self.t_final) / 2.0
        return centers, integral / widths


def default_n_cap(params: SystemParams) -> int:
    """Truncation cap: 4x the 1e-9 thermal-tail dimension, at least 20.

    The headroom factor covers the n^2 growth of the two-phonon channels.
    """
    return max(4 * suggest_dim(params.nbar_th), 20)


@functools.lru_cache(maxsize=1)
def _rate_table(params: SystemParams, cap: int) -> np.ndarray:
    """Read-only cumulative rate table, shared by an ensemble's chains."""
    cum = np.cumsum(channel_rates(params, cap), axis=1)
    cum.flags.writeable = False
    return cum


def simulate_jump_trajectory(
    params: SystemParams,
    n0: int,
    t_final: float,
    seed: int,
    n_cap: int | None = None,
    backend: str | None = None,
) -> Trajectory:
    """Exact continuous-time Markov-chain sample of the jump dynamics.

    Waiting times are exponential in the total outflow rate; the channel
    is drawn proportionally to its share. Raises TruncationError when the
    state reaches ``n_cap``.
    """
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ValueError("t_final must be positive and finite")
    if n0 < 0:
        raise ValueError("initial state must be non-negative")
    cap = default_n_cap(params) if n_cap is None else int(n_cap)
    if n0 >= cap:
        raise ValueError("initial state is at or above the truncation cap")
    kernel = get_backend(backend)
    status, times, states, chans = kernel.run(
        make_rng(seed), int(n0), float(t_final), _rate_table(params, cap), cap
    )
    if status != 0:
        raise TruncationError(
            "truncation reached: state hit n_cap = %d at t = %.6g s; "
            "the run is invalid (raise n_cap)" % (cap, times[-1])
        )
    return Trajectory(
        seed=int(seed),
        initial_n=int(n0),
        t_final=float(t_final),
        times=times,
        new_ns=states,
        channels=chans,
    )


def simulate_quantum_jump(
    gen: LindbladGenerator,
    psi0,
    t_final: float,
    seed: int,
    snapshot_times=None,
) -> Trajectory:
    """Monte Carlo wave-function unraveling of a number-diagonal generator.

    Between jumps the state drifts under the non-Hermitian effective
    Hamiltonian; a jump fires when the squared norm crosses a uniform
    threshold, with the crossing located to machine precision; the channel
    is drawn proportionally to w_k |o_k psi|^2. The record names the
    operator that fired, so before any draw ValueError refuses a
    non-diagonal Hamiltonian and any channel of positive weight not labelled
    with a CHANNELS name (its operator on that channel's n -> n + delta
    diagonal) or ``"dephasing"`` (its operator diagonal, a null jump).
    Null jumps are tallied in ``null_jumps``, not the event arrays. From a
    superposition ``psi0`` the first CHANNELS jump raises ValueError, as no
    phonon number precedes it. Snapshots, when requested, are normalized
    states on the given time grid (seconds).
    """
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ValueError("t_final must be positive and finite")
    ts = gen.time_scale
    dim = gen.dim
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi.shape[0] != dim:
        raise ValueError("state vector has wrong dimension")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("state vector must be nonzero")
    psi = psi / nrm

    h = gen.hamiltonian
    if np.count_nonzero(h - np.diag(np.diag(h))):
        raise ValueError("hamiltonian is not diagonal in the number basis")
    # an operator on one diagonal has a diagonal o†o, so the drift is diagonal
    labels = gen.labels or (None,) * len(gen.channels)
    ops = []
    records = []
    for k, ((op, w), label) in enumerate(zip(gen.channels, labels)):
        if not w > 0:
            continue
        if label not in _LABELS:
            raise ValueError("channel %d has label %r, neither a CHANNELS name "
                             "nor 'dephasing'" % (k, label))
        ch, dn = _LABELS[label]
        if np.count_nonzero(op - np.diag(np.diag(op, -dn), -dn)):
            raise ValueError("channel %d (%s) has entries off its n -> n%+d "
                             "diagonal" % (k, label, dn))
        ops.append((op, w))
        records.append(ch)

    h_eff = np.array(h, dtype=complex)
    for op, w in ops:
        h_eff = h_eff - 0.5j * w * (op.conj().T @ op)
    drift = _DiagonalDrift(np.diag(-1j * h_eff / ts))  # in dimensionless time

    rng = make_rng(seed)
    tau_final = t_final * ts
    snap_taus = None
    snaps_out = None
    snap_idx = 0
    if snapshot_times is not None:
        snap_times = np.asarray(snapshot_times, dtype=float)
        if np.any(snap_times < 0) or np.any(snap_times > t_final):
            raise ValueError("snapshot times must lie in [0, t_final]")
        snap_taus = snap_times * ts
        snaps_out = np.empty((len(snap_taus), dim), dtype=complex)

    number_start = np.count_nonzero(psi) == 1
    initial_n = int(np.argmax(np.abs(psi)))
    ev_times: list[float] = []
    ev_ns: list[int] = []
    ev_chs: list[int] = []
    null_jumps = 0
    prev_n = initial_n

    def record_snaps(phi_seg, tau_seg, tau_stop):
        nonlocal snap_idx
        if snap_taus is None:
            return
        while snap_idx < len(snap_taus) and snap_taus[snap_idx] <= tau_stop:
            phi = drift.apply(phi_seg, snap_taus[snap_idx] - tau_seg)
            nn = np.linalg.norm(phi)
            snaps_out[snap_idx] = phi / nn if nn > 0 else phi
            snap_idx += 1

    tau = 0.0
    max_jumps = 50_000_000
    for _ in range(max_jumps):
        r = rng.random()
        delta_max = tau_final - tau
        if delta_max <= 0:
            break
        delta = drift.crossing(psi, r, delta_max)
        if delta is None:
            record_snaps(psi, tau, tau_final)
            break
        record_snaps(psi, tau, tau + delta)
        phi = drift.apply(psi, delta)
        nn = np.linalg.norm(phi)
        if nn == 0:
            break
        phi_hat = phi / nn
        weights = np.array(
            [w * float(np.vdot(op @ phi_hat, op @ phi_hat).real) for op, w in ops]
        )
        w_tot = weights.sum()
        if w_tot <= 0:
            tau += delta
            psi = phi_hat
            continue
        v = rng.random() * w_tot
        acc = 0.0
        k_sel = len(ops) - 1
        for k, wk in enumerate(weights):
            acc += wk
            if v < acc:
                k_sel = k
                break
        post = ops[k_sel][0] @ phi_hat
        post = post / np.linalg.norm(post)
        tau += delta
        ch = records[k_sel]
        if ch < 0:
            null_jumps += 1
        elif not number_start:
            raise ValueError("%s jump at t = %.6g s (seed %d) from a superposition "
                             "start" % (CHANNELS[ch], tau / ts, seed))
        else:
            prev_n += CHANNEL_DELTAS[ch]
            ev_times.append(tau / ts)
            ev_ns.append(prev_n)
            ev_chs.append(ch)
        psi = post
    else:
        raise RuntimeError("jump budget exhausted; rates far exceed 1/t_final")

    return Trajectory(
        seed=int(seed),
        initial_n=initial_n,
        t_final=float(t_final),
        times=np.asarray(ev_times, dtype=float),
        new_ns=np.asarray(ev_ns, dtype=np.int64),
        channels=np.asarray(ev_chs, dtype=np.uint8),
        null_jumps=null_jumps,
        snapshots=snaps_out,
    )


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``, imported on the first call."""
    from scipy import optimize

    return optimize.brentq(*args, **kwargs)


def _root(norm2, r, delta_max):
    """The d in (0, delta_max) with norm2(d) == r, to machine precision."""
    return brentq(lambda d: norm2(d) - r, 0.0, delta_max, xtol=1e-300,
                  rtol=4 * np.finfo(float).eps)


class _DiagonalDrift:
    """Drift of a diagonal generator: each amplitude decays on its own."""

    def __init__(self, diag_a: np.ndarray):
        self.diag = diag_a
        self.decay = 2.0 * np.real(diag_a)

    def apply(self, phi: np.ndarray, d_tau: float) -> np.ndarray:
        return np.exp(self.diag * d_tau) * phi

    def crossing(self, psi: np.ndarray, r: float, delta_max: float):
        """Dimensionless time at which |psi(delta)|^2 falls to r, or None."""
        w2 = np.abs(psi) ** 2
        decay = self.decay

        def norm2(d):
            return float(np.sum(w2 * np.exp(decay * d)))

        if norm2(delta_max) >= r:
            return None
        nz = np.flatnonzero(w2 > 1e-300)
        if len(nz) == 1:
            i = nz[0]
            if decay[i] >= 0.0:
                return None
            return math.log(r / w2[i]) / decay[i]
        return _root(norm2, r, delta_max)


@dataclass
class EnsembleStats:
    """Order-insensitive reductions over an ensemble of trajectories.

    ``counts[n, c]`` is the number of events leaving state n through
    channel c; ``time_in_state[n]`` the total occupancy time (trailing
    segments included); ``completed_dwell[n]``/``visits`` exclude the final
    truncated stay so mean dwell times are unbiased.
    """

    counts: np.ndarray
    time_in_state: np.ndarray
    completed_dwell: np.ndarray
    visits: np.ndarray
    t_total: float
    n_trajectories: int
    seed_base: int
    null_jumps: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def histogram(self) -> np.ndarray:
        tot = self.time_in_state.sum()
        return self.time_in_state / tot if tot > 0 else self.time_in_state

    @property
    def leave_counts(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def empirical_rates(self) -> np.ndarray:
        """Per-channel rates conditioned on n: counts / occupancy time."""
        out = np.zeros_like(self.counts, dtype=float)
        mask = self.time_in_state > 0
        out[mask] = self.counts[mask] / self.time_in_state[mask, None]
        return out

    def mean_dwell(self) -> np.ndarray:
        """Mean completed stay duration per state (nan where unvisited)."""
        out = np.full(len(self.time_in_state), np.nan)
        lv = self.leave_counts
        mask = lv > 0
        out[mask] = self.completed_dwell[mask] / lv[mask]
        return out

    def mean_occupation(self) -> float:
        h = self.histogram
        return float(np.dot(np.arange(len(h)), h))

    def to_json_dict(self) -> dict:
        return {
            "channels": list(CHANNELS),
            "counts": [[int(c) for c in row] for row in self.counts],
            "time_in_state_s": [float(x) for x in self.time_in_state],
            "histogram": [float(x) for x in self.histogram],
            "empirical_rates_per_s": [
                [float(x) for x in row] for row in self.empirical_rates()
            ],
            "mean_dwell_s": [
                None if math.isnan(x) else float(x) for x in self.mean_dwell()
            ],
            "visits": [int(v) for v in self.visits],
            "mean_occupation": self.mean_occupation(),
            "t_total_s": float(self.t_total),
            "n_trajectories": int(self.n_trajectories),
            "seed_base": int(self.seed_base),
            "null_jumps": int(self.null_jumps),
            "meta": dict(self.meta),
        }

    def write_json(self, path: str, meta: dict | None = None) -> None:
        _io.write_json(path, self.to_json_dict(), meta=meta)


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else QND_THREADS, else 1 (0 = auto)."""
    if threads is None:
        raw = os.environ.get("QND_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError("QND_THREADS must be an integer, got %r" % raw)
    if threads < 0:
        raise ValueError("thread count must be >= 0")
    if threads == 0:
        threads = os.cpu_count() or 1
    return threads


def ensemble(
    source,
    n0: int,
    t_final: float,
    count: int,
    seed_base: int,
    n_cap: int | None = None,
    backend: str | None = None,
    threads: int | None = None,
    return_trajectories: bool = False,
):
    """Run ``count`` trajectories seeded seed_base + i and reduce them.

    ``source`` selects the sampler: SystemParams runs the jump chain,
    LindbladGenerator runs the quantum-jump unraveling from |n0>. The
    reduction is performed in trajectory-index order regardless of worker
    scheduling, so results are independent of the thread count. A member
    that reaches ``n_cap`` (for the unraveling, by default the generator's
    dimension) raises
    TruncationError; ``n0`` at or above ``n_cap`` is refused with
    ValueError before any chain runs. With ``return_trajectories`` the result is
    (stats, list_of_trajectories).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if isinstance(source, SystemParams):
        cap = default_n_cap(source) if n_cap is None else int(n_cap)

        def one(i: int) -> Trajectory:
            return simulate_jump_trajectory(
                source, n0, t_final, seed_base + i, n_cap=cap, backend=backend
            )

        meta = {
            "sampler": "gillespie",
            "measurement_to_thermal": cooperativities(source).q2,
        }
    elif isinstance(source, LindbladGenerator):
        cap = source.dim if n_cap is None else int(n_cap)
        if not 0 <= n0 < source.dim:
            raise ValueError("n0 must lie in 0..%d" % (source.dim - 1))
        psi0 = np.zeros(source.dim, dtype=complex)
        psi0[n0] = 1.0

        def one(i: int) -> Trajectory:
            return simulate_quantum_jump(source, psi0, t_final, seed_base + i)

        meta = {"sampler": "quantum_jump"}
    else:
        raise TypeError("source must be SystemParams or LindbladGenerator")
    if n0 >= cap:
        raise ValueError("initial state is at or above the truncation cap")

    workers = resolve_threads(threads)
    if workers > 1 and count > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trajs = list(pool.map(one, range(count)))
    else:
        trajs = [one(i) for i in range(count)]

    counts = np.zeros((cap, len(CHANNELS)), dtype=np.int64)
    time_in = np.zeros(cap)
    completed = np.zeros(cap)
    visits = np.zeros(cap, dtype=np.int64)
    nulls = 0
    for traj in trajs:
        # unbuffered, in-order np.add.at adds each stay in record order, so
        # the float sums are those of a per-event walk, bit for bit
        states, dwell, ends = traj.segments()
        top = int(states.max())
        if top >= cap:
            raise TruncationError(
                "truncation reached: seed %d reached n = %d, at or above "
                "n_cap = %d; the ensemble is invalid (raise n_cap)"
                % (traj.seed, top, cap)
            )
        np.add.at(time_in, states, dwell)
        np.add.at(visits, states, 1)
        done = ends >= 0
        np.add.at(completed, states[done], dwell[done])
        np.add.at(counts, (states[done], ends[done]), 1)
        nulls += traj.null_jumps
    meta.update(
        {
            "t_final_s": float(t_final),
            "n0": int(n0),
            "n_cap": int(cap),
            "threads": int(workers),
        }
    )
    stats = EnsembleStats(
        counts=counts,
        time_in_state=time_in,
        completed_dwell=completed,
        visits=visits,
        t_total=float(t_final) * count,
        n_trajectories=count,
        seed_base=int(seed_base),
        null_jumps=nulls,
        meta=meta,
    )
    if return_trajectories:
        return stats, trajs
    return stats


def write_events_csv(traj: Trajectory, path: str, meta: dict | None = None) -> None:
    """Event record as CSV rows (time_s, n, channel name)."""
    names = list(map(CHANNELS.__getitem__, traj.channels.tolist()))
    _io.write_csv(
        path, ["time_s", "n", "channel"], [traj.times, traj.new_ns, names], meta=meta
    )


def write_staircase_csv(
    traj: Trajectory, path: str, window: float, meta: dict | None = None
) -> None:
    """Boxcar-averaged occupation for plotting (time_s, mean_n)."""
    _io.write_csv(path, ["time_s", "mean_n"], traj.boxcar(window), meta=meta)
