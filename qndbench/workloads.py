"""The four benchmark workloads: seeded inputs, one request, output checks.

Each workload builds its inputs in ``setup`` (this is what ``setup_s``
times), serves request ``i`` in ``request`` and judges one output in
``check``. ``check_run`` judges the pooled outputs of a whole run. The
references the checks compare against are built here, from the
benchmark's own formulas, not from the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np
from scipy.linalg import expm

from qndsim import cli, lindblad, trajectories
from qndsim.fock import fock_state, product_state
from qndsim.rates import transition_rates
from qndsim.system import SystemParams

TWO_PI = 2.0 * math.pi

# acceptance criterion 4: two-phonon sideband point, bottom rows busy
SIDEBAND = dict(
    omega_m_hz=800.0, kappa_hz=400.0, delta_hz=1600.0, g1_hz=280.0,
    g2_hz=150.0, gamma_m_hz=200.0, nbar_th=0.005, nbar_photon=1.0,
)
# the reference configuration of the README and the CLI tests
REFERENCE = dict(
    omega_m_hz=2e9, gamma_m_hz=1e3, kappa_hz=500e6, delta_hz=0.0,
    g1_hz=50e3, g2_hz=100e3, nbar_th=0.25, nbar_photon=100.0,
)
# acceptance criterion 5: compressed units with kappa = 1 rad/s
BIPARTITE = dict(
    REFERENCE, omega_m_hz=10.0 / TWO_PI, kappa_hz=1.0 / TWO_PI,
    gamma_m_hz=5e-4 / TWO_PI, g1_hz=0.22389 / TWO_PI, g2_hz=0.283 / TWO_PI,
    nbar_th=0.2, nbar_photon=1.0,
)

# phonon-number change of each jump channel, in qndsim's frozen order
DELTAS = np.array([1, -1, 1, -1, 2, -2])
WELL_VISITED = 500  # rows with fewer visits are not rate-checked
RATE_SIGMAS = 5.0  # Poisson standard deviations a pooled count may stray


def request_seed(seed: int, i: int) -> int:
    """Seed base of request ``i``, a pure function of the run seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(("%s%s" % (a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def rate_problems(counts, time_in, visits, params) -> list[str]:
    """Pooled empirical rates against ``transition_rates`` on busy rows.

    A cell fails when its count strays from rate * occupancy by more
    than RATE_SIGMAS Poisson deviations, or is nonzero where the
    analytic rate is zero.
    """
    rows = np.nonzero(visits >= WELL_VISITED)[0]
    if len(rows) == 0:
        return ["no row reached %d visits" % WELL_VISITED]
    problems = []
    for n in rows:
        t_n = float(time_in[n])
        r = transition_rates(params, int(n))
        cells = (
            ("thermal", counts[n, 0] + counts[n, 1], r.gamma_th),
            ("up1", counts[n, 2], r.gamma_up1),
            ("down1", counts[n, 3], r.gamma_down1),
            ("up2", counts[n, 4], r.gamma_up2),
            ("down2", counts[n, 5], r.gamma_down2),
        )
        for cell, count, rate in cells:
            expected = rate * t_n
            if abs(count - expected) > RATE_SIGMAS * math.sqrt(expected) + 1.0:
                problems.append("n=%d %s: %d events, expected %.1f"
                                % (n, cell, count, expected))
    return problems


def _pooled(stats_list):
    counts = sum(s.counts for s in stats_list)
    time_in = sum(s.time_in_state for s in stats_list)
    visits = sum(s.visits for s in stats_list)
    return counts, time_in, visits


def record_problems(traj) -> list[str]:
    """Event-record invariants of one trajectory, checked independently."""
    times = np.asarray(traj.times)
    new_ns = np.asarray(traj.new_ns)
    chans = np.asarray(traj.channels)
    if not len(times) == len(new_ns) == len(chans):
        return ["seed %d: event arrays differ in length" % traj.seed]
    if len(times) == 0:
        return []
    problems = []
    if np.any(np.diff(times) <= 0):
        problems.append("seed %d: event times not increasing" % traj.seed)
    if times[0] <= 0 or times[-1] > traj.t_final:
        problems.append("seed %d: event time outside (0, t_final]" % traj.seed)
    if np.any(chans >= len(DELTAS)):
        return problems + ["seed %d: unknown channel" % traj.seed]
    path = traj.initial_n + np.cumsum(DELTAS[chans])
    if not np.array_equal(path, new_ns):
        problems.append("seed %d: states inconsistent with channels" % traj.seed)
    if np.any(path < 0):
        problems.append("seed %d: negative phonon number" % traj.seed)
    return problems


class Workload:
    """One request type; see the module docstring for the protocol."""

    name = ""
    default_seed = 0
    backend_check = False  # re-run on the other kernel backend when present

    def __init__(self, seed: int, tiny: bool, workdir, reference: dict | None):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        # stored digests gate only the default seed at full size
        self.reference = (
            reference if reference and not tiny
            and reference.get("seed") == seed else None
        )

    def setup(self) -> None:
        raise NotImplementedError

    def request(self, i: int, backend: str | None = None):
        raise NotImplementedError

    def snapshot(self, out):
        """What is kept of one output for the checks after the loop."""
        return out

    def digest(self, out) -> str:
        raise NotImplementedError

    def stored_digest(self, out) -> str:
        """The digest the stored default-seed reference keeps."""
        return self.digest(out)

    def events(self, out) -> int | None:
        return None

    def threads(self, out) -> int | None:
        return None

    def check(self, i: int, out, digest: str) -> list[str]:
        return []

    def check_run(self, outs: list) -> list[str]:
        return []

    def check_values(self) -> dict:
        return {}


class JumpEnsemble(Workload):
    """Jump-chain ensemble on the criterion-4 sideband point."""

    name = "jump_ensemble"
    default_seed = 223000
    backend_check = True

    def setup(self):
        self.t_final, self.count = (5.0, 2) if self.tiny else (57.5, 20)
        self.params = SystemParams.from_frequencies(**SIDEBAND)

    def request(self, i, backend=None):
        extra = {"backend": backend} if backend else {}
        return trajectories.ensemble(
            self.params, 0, self.t_final, self.count,
            request_seed(self.seed, i), **extra,
        )

    def digest(self, out):
        return digest_arrays(out.counts, out.visits, out.time_in_state)

    def events(self, out):
        return int(out.counts.sum())

    def threads(self, out):
        return out.meta.get("threads")

    def check(self, i, out, digest):
        problems = []
        if np.any(out.counts < 0) or np.any(out.visits < 0):
            problems.append("negative count")
        # every event is a visit that ended, plus one open stay per chain
        if int(out.visits.sum()) != int(out.counts.sum()) + self.count:
            problems.append("visits do not match events plus trajectories")
        span = self.t_final * self.count
        if abs(float(out.time_in_state.sum()) - span) > 1e-9 * span:
            problems.append("occupancy does not add up to the ensemble time")
        stored = (self.reference or {}).get("requests", {}).get(str(i))
        if stored is not None and digest != stored:
            problems.append("output digest differs from the stored one")
        return problems

    def check_run(self, outs):
        if not outs or self.tiny:
            return []
        return rate_problems(*_pooled(outs), self.params)


class QuantumJump(Workload):
    """Monte Carlo wave-function ensemble on the reduced generator.

    The quantum-jump loop dominates; the kernel never runs and the
    reduction is under 5% of a request.
    """

    name = "quantum_jump"
    default_seed = 735000

    def setup(self):
        self.t_final, self.count = (1.0, 2) if self.tiny else (10.0, 4)
        self.params = SystemParams.from_frequencies(**SIDEBAND)
        self.gen = lindblad.reduced_generator(self.params, 12)

    def request(self, i, backend=None):
        return trajectories.ensemble(
            self.gen, 0, self.t_final, self.count,
            request_seed(self.seed, i), return_trajectories=True,
        )

    def digest(self, out):
        h = hashlib.sha256()
        for traj in out[1]:
            h.update(digest_arrays(traj.times, traj.new_ns, traj.channels).encode())
            h.update(str(traj.null_jumps).encode())
        return h.hexdigest()

    def events(self, out):
        return sum(t.n_events + t.null_jumps for t in out[1])

    def threads(self, out):
        return out[0].meta.get("threads")

    def check(self, i, out, digest):
        stats, trajs = out
        problems = []
        for traj in trajs:
            problems += record_problems(traj)
        if int(stats.counts.sum()) != sum(t.n_events for t in trajs):
            problems.append("ensemble counts do not match the event records")
        return problems

    def check_run(self, outs):
        if not outs or self.tiny:
            return []
        return rate_problems(*_pooled([o[0] for o in outs]), self.params)


def kron_superoperator(h, channels) -> np.ndarray:
    """Row-major vectorised Lindbladian, vec(A r B) = (A kron B^T) vec(r)."""
    d = h.shape[0]
    eye = np.eye(d)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, w in channels:
        ada = op.conj().T @ op
        sup = sup + (w / 2.0) * (
            2.0 * np.kron(op, op.conj()) - np.kron(ada, eye) - np.kron(eye, ada.T)
        )
    return sup


class MasterEquation(Workload):
    """Master-equation evolution plus a dense steady-state solve."""

    name = "master_equation"
    default_seed = 1
    POP_TOL = 1e-9  # evolve runs at rtol 1e-8; today it agrees to ~1e-12
    RESIDUAL_TOL = 1e-10  # steady_state's own documented bound
    GRID = 201  # evolve's default output grid

    def setup(self):
        dims, self.t_final, dim_r = ((3, 4), 2.0, 8) if self.tiny else ((4, 6), 10.0, 24)
        self.bip = lindblad.bipartite_generator(
            SystemParams.from_frequencies(**BIPARTITE), *dims)
        self.red = lindblad.reduced_generator(
            SystemParams.from_frequencies(**REFERENCE), dim_r)
        self.rho0 = product_state(fock_state(dims[0], 0), fock_state(dims[1], 0))
        self._ref = None
        self._first = None
        self._worst = {"steady_residual": 0.0, "max_pop_error": 0.0}

    def request(self, i, backend=None):
        res = lindblad.evolve(self.bip, self.rho0, self.t_final)
        rho = lindblad.steady_state(self.red)
        return res.populations, rho.entries

    def digest(self, out):
        return digest_arrays(*out)

    def _reference(self):
        """Mechanical populations on evolve's grid via one exact propagator."""
        if self._ref is None:
            gen = self.bip
            dc, dm = gen.subsystem_dims
            step = expm(kron_superoperator(gen.hamiltonian, gen.channels)
                        * (self.t_final / (self.GRID - 1)))
            v = self.rho0.entries.reshape(-1).astype(complex)
            pops = np.empty((self.GRID, dm))
            for k in range(self.GRID):
                r4 = v.reshape(dc, dm, dc, dm)
                pops[k] = np.real(np.einsum("inin->n", r4))
                v = step @ v
            red = self.red
            scale = max(
                max((w for _, w in red.channels), default=0.0),
                float(np.max(np.abs(red.hamiltonian))), red.time_scale,
            )
            self._ref = (pops, kron_superoperator(red.hamiltonian, red.channels),
                         scale)
        return self._ref

    def check(self, i, out, digest):
        pops, rho = out
        ref_pops, ref_sup, scale = self._reference()
        problems = []
        if pops.shape != ref_pops.shape:
            return ["populations have shape %s, expected %s"
                    % (pops.shape, ref_pops.shape)]
        err = float(np.max(np.abs(pops - ref_pops)))
        resid = float(np.max(np.abs(ref_sup @ rho.reshape(-1)))) / scale
        self._worst["max_pop_error"] = max(self._worst["max_pop_error"], err)
        self._worst["steady_residual"] = max(self._worst["steady_residual"], resid)
        if not err <= self.POP_TOL:
            problems.append("populations off the expm reference by %.3g" % err)
        if not abs(np.trace(rho) - 1.0) <= 1e-12:
            problems.append("steady state trace %r" % np.trace(rho))
        if not resid <= self.RESIDUAL_TOL:
            problems.append("steady-state residual %.3g" % resid)
        if self._first is None:
            self._first = digest
        elif digest != self._first:
            problems.append("output differs from the first request's")
        return problems

    def check_values(self):
        return dict(self._worst)


class CliArtifacts(Workload):
    """``qndsim traject`` then ``qndsim sweep``, in process, re-run into one prefix.

    Every request rewrites the same 130 files, as a user re-running a
    seeded command does; the files are digested between requests.
    """

    name = "cli_artifacts"
    default_seed = 1
    backend_check = True

    def setup(self):
        self.count, self.points = (4, 5) if self.tiny else (64, 50)
        self.config = self.workdir / "config.json"
        self.config.write_text(json.dumps(REFERENCE))
        self.out = self.workdir / "out"
        self.out.mkdir()
        self._first = None

    def request(self, i, backend=None):
        traject = [
            "traject", "--config", str(self.config), "--count", str(self.count),
            "--t-final", "0.05", "--seed", str(self.seed),
            "--out", str(self.out / "traj"),
        ]
        if backend:
            traject += ["--backend", backend]
        sweep = [
            "sweep", "--config", str(self.config), "--axis", "g2_hz",
            "--grid", "log:1e4:1e6:%d" % self.points,
            "--out", str(self.out / "sweep.csv"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (traject, sweep):
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError("qndsim %s exited %d" % (argv[0], code))
        return self.out

    def snapshot(self, out):
        """Two digests of the files: raw bytes, and with the thread count blanked.

        ``traj_stats.json`` records the worker count ``ensemble`` chose,
        which follows ``os.cpu_count()`` and ``QND_THREADS``. The raw
        digest compares requests of one run; the portable one, with that
        single field set to null, is what the stored default-seed digest
        gates, so the gate holds on any host.
        """
        raw, portable = hashlib.sha256(), hashlib.sha256()
        paths = sorted(out.iterdir())
        stats = json.loads((out / "traj_stats.json").read_text())
        threads = stats["meta"].get("threads")
        for path in paths:
            data = path.read_bytes()
            raw.update(path.name.encode() + b"\0")
            raw.update(hashlib.sha256(data).digest())
            if path.name == "traj_stats.json" and threads is not None:
                field = b'"threads": %d' % threads
                if data.count(field) != 1:
                    raise ValueError("traj_stats.json: thread count not found once")
                data = data.replace(field, b'"threads": null')
            portable.update(path.name.encode() + b"\0")
            portable.update(hashlib.sha256(data).digest())
        return {
            "digest": raw.hexdigest(),
            "portable": portable.hexdigest(),
            "files": len(paths),
            "events": sum(map(sum, stats["counts"])),
            "threads": threads,
        }

    def digest(self, out):
        return out["digest"]

    def stored_digest(self, out):
        return out["portable"]

    def events(self, out):
        return out["events"]

    def threads(self, out):
        return out["threads"]

    def check(self, i, out, digest):
        problems = []
        expected = 2 * self.count + 2  # stats, sweep, two CSVs per trajectory
        if out["files"] != expected:
            problems.append("%d files written, expected %d" % (out["files"], expected))
        if self._first is None:
            self._first = digest
        elif digest != self._first:
            problems.append("artifacts differ from the first request's")
        stored = (self.reference or {}).get("digest")
        if stored is not None and self.stored_digest(out) != stored:
            problems.append("artifact digest differs from the stored one")
        return problems


WORKLOADS = {
    w.name: w for w in (JumpEnsemble, QuantumJump, MasterEquation, CliArtifacts)
}
