"""Master-equation generators and integration.

Two generators are provided: the reduced phonon-only equation (photon
degrees adiabatically eliminated, channels weighted by the cavity response
at the relevant sidebands, plus the photon-mediated Hermitian shift), and
the full bipartite cavity+mechanics equation used as an oracle for the
reduced rates.

Convention: d(rho)/dt = -i [H, rho] + sum_k (w_k / 2) D[o_k] rho, with
D[o]r = 2 o r o† - o†o r - r o†o, Hamiltonians stored as angular-rate
matrices (H/hbar), and weights w_k in rad/s. Integration runs in
dimensionless time t * time_scale to keep step sizes sane across the many
decades separating cavity and phonon rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .cavity import susceptibility
from .fock import (
    DensityMatrix,
    dissipator_action,
    fock_state,
    ladder,
    product_state,
)
from .rates import CHANNELS, channel_coefficients, number_dephasing_weight
from .system import SystemParams

if TYPE_CHECKING:
    from scipy import sparse

# Frozen channel order of the reduced generator.
REDUCED_CHANNELS = CHANNELS + ("dephasing",)

BIPARTITE_CHANNELS = ("cavity_decay", "thermal_down", "thermal_up")


@dataclass
class LindbladGenerator:
    """Lindblad generator: Hermitian part plus weighted dissipators.

    ``hamiltonian`` is a rad/s matrix; ``channels`` is a list of
    (operator, weight) pairs with weights in rad/s entering as (w/2) D[o].
    ``time_scale`` (rad/s) defines the dimensionless time unit used by
    :func:`evolve`. For bipartite generators ``subsystem_dims`` holds
    (dim_cavity, dim_mech) with the cavity factor first. ``labels`` is
    empty (unlabelled) or names each channel, one string per channel.
    """

    hamiltonian: np.ndarray
    channels: list
    time_scale: float
    subsystem_dims: tuple | None = None
    labels: tuple = ()

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        scale = max(1.0, float(np.max(np.abs(h)))) if h.size else 1.0
        # a NaN or inf entry makes the difference NaN, which fails too
        if not np.max(np.abs(h - h.conj().T)) <= 1e-12 * scale:
            raise ValueError("hamiltonian must be finite and Hermitian")
        self.hamiltonian = h
        ops = []
        for op, w in self.channels:
            if not (w >= 0 and math.isfinite(w)):
                raise ValueError("channel weights must be non-negative and finite")
            m = np.asarray(op, complex)
            if m.shape != h.shape or not np.all(np.isfinite(m)):
                raise ValueError("channel operator must be finite, of H's shape")
            ops.append((m, float(w)))
        self.channels = ops
        if self.labels and (
            len(self.labels) != len(ops)
            or not all(isinstance(lbl, str) for lbl in self.labels)
        ):
            raise ValueError("labels must be empty or one string per channel")
        if not (self.time_scale > 0 and math.isfinite(self.time_scale)):
            raise ValueError("time_scale must be positive and finite")
        if self.subsystem_dims is not None:
            dc, dm = self.subsystem_dims
            if dc * dm != h.shape[0]:
                raise ValueError("subsystem dims do not factor the space")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def rate_scale(self) -> float:
        """Magnitude (rad/s) against which residuals should be judged."""
        w = max((w for _, w in self.channels), default=0.0)
        h = float(np.max(np.abs(self.hamiltonian))) if self.dim else 0.0
        return max(w, h, self.time_scale)

    def apply(self, rho) -> np.ndarray:
        """d(rho)/dt in 1/s for a bare matrix or DensityMatrix."""
        r = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, complex)
        h = self.hamiltonian
        out = -1j * (h @ r - r @ h)
        for op, w in self.channels:
            if w != 0.0:
                out += (w / 2.0) * dissipator_action(op, r)
        return out

    def superoperator(self) -> sparse.csr_matrix:
        """Sparse CSR matrix (1/s) acting on row-major vectorized density matrices.

        Built from vec(A r B) = (A kron B^T) vec(r), term by term as in
        :meth:`apply`; zero-weight channels are skipped there and here.
        """
        from scipy import sparse

        eye = sparse.identity(self.dim, dtype=complex, format="csr")
        h = sparse.csr_matrix(self.hamiltonian)
        sup = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
        for op, w in self.channels:
            if w != 0.0:
                o = sparse.csr_matrix(op)
                oo = o.conj().T @ o
                sup = sup + (w / 2.0) * (
                    2.0 * sparse.kron(o, o.conj())
                    - sparse.kron(oo, eye)
                    - sparse.kron(eye, oo.T)
                )
        return sup.tocsr()

    def mech_populations(self, rho: np.ndarray) -> np.ndarray:
        """Diagonal populations, marginalized over the cavity if bipartite;
        ``rho`` may be one (d, d) matrix or a stack of shape (..., d, d)."""
        if self.subsystem_dims is None:
            return np.real(np.einsum("...ii->...i", rho)).copy()
        dc, dm = self.subsystem_dims
        r4 = rho.reshape(rho.shape[:-2] + (dc, dm, dc, dm))
        return np.real(np.einsum("...inin->...n", r4)).copy()


@dataclass
class EvolutionResult:
    """Time grid, populations, and integration health diagnostics.

    ``populations[k]`` is the population vector at ``times[k]`` (the
    mechanical marginal for bipartite runs). Trace drift is reported, not
    corrected. A run is marked failed when the most negative eigenvalue
    encountered drops below -1e-6.
    """

    times: np.ndarray
    populations: np.ndarray
    trace_errors: np.ndarray
    hermiticity_errors: np.ndarray
    min_eigenvalues: np.ndarray
    snapshots: list | None = None

    @property
    def max_trace_error(self) -> float:
        return float(np.max(self.trace_errors))

    @property
    def max_hermiticity_error(self) -> float:
        return float(np.max(self.hermiticity_errors))

    @property
    def min_eigenvalue(self) -> float:
        return float(np.min(self.min_eigenvalues))

    @property
    def failed(self) -> bool:
        return self.min_eigenvalue < -1e-6

    def diagnostics(self) -> dict:
        return {
            "max_trace_error": self.max_trace_error,
            "max_hermiticity_error": self.max_hermiticity_error,
            "min_eigenvalue": self.min_eigenvalue,
            "failed": self.failed,
        }

    def csv_header_columns(self):
        d = self.populations.shape[1]
        header = (
            ["time_s"]
            + ["p%d" % n for n in range(d)]
            + ["trace_error", "hermiticity_error", "min_eigenvalue"]
        )
        columns = (
            [self.times]
            + list(self.populations.T)
            + [self.trace_errors, self.hermiticity_errors, self.min_eigenvalues]
        )
        return header, columns

    def to_json_dict(self) -> dict:
        return {
            "times_s": [float(t) for t in self.times],
            "populations": [[float(x) for x in row] for row in self.populations],
            "diagnostics": self.diagnostics(),
        }


def reduced_generator(params: SystemParams, dim: int) -> LindbladGenerator:
    """Phonon-only generator with photon degrees eliminated.

    Channels, in frozen order: thermal up/down, photon-induced single- and
    double-quantum up/down, and pure number dephasing. Weights follow the
    sideband values of the photon-number spectrum so that the diagonal
    restriction reproduces the analytic birth-death(+2) rates exactly.
    The Hermitian part carries the photon-number factor and commutes with
    b†b; at zero detuning it collapses to the static frequency shift
    g2^2 Im{chi(2 omega_m)} (b†b + 1/2) per photon, truncation corner
    aside.
    """
    if dim < 2:
        raise ValueError("truncation dimension must be at least 2")
    p = params
    b, bdag, n_op = ladder(dim)
    bb, bdbd = b @ b, bdag @ bdag

    g1sq, g2sq = p.g1 * p.g1, p.g2 * p.g2
    weights = dict(zip(REDUCED_CHANNELS, channel_coefficients(p).tolist()))
    weights["dephasing"] = number_dephasing_weight(p)
    operators = {
        "thermal_up": bdag,
        "thermal_down": b,
        "opt_up1": bdag,
        "opt_down1": b,
        "opt_up2": bdbd,
        "opt_down2": bb,
        "dephasing": n_op,
    }

    def im_chi(omega):
        return susceptibility(omega, p.delta, p.kappa).imag

    wm = p.omega_m
    h = p.nbar_photon * (
        g1sq * (im_chi(wm) + im_chi(-wm)) * n_op
        + g2sq * im_chi(0.0) * (n_op @ n_op)
        + (g2sq / 4.0)
        * (
            im_chi(2.0 * wm) * (bb @ bdbd)
            + im_chi(-2.0 * wm) * (bdbd @ bb)
        )
    )
    return LindbladGenerator(
        hamiltonian=h,
        channels=[(operators[k], weights[k]) for k in REDUCED_CHANNELS],
        time_scale=p.gamma_m,
        labels=REDUCED_CHANNELS,
    )


def bipartite_generator(
    params: SystemParams, dim_c: int, dim_m: int
) -> LindbladGenerator:
    """Full cavity-fluctuation + mechanics generator (oracle).

    H = delta d†d + omega_m b†b
        + sqrt(N) [g1 (b+b†) + (g2/2)(2 b†b + bb + b†b†)] (d + d†),
    with the classical amplitude taken real. Channels: cavity decay into a
    zero-temperature bath plus the mechanical thermal pair.
    """
    if dim_c < 2 or dim_m < 2:
        raise ValueError("both dimensions must be at least 2")
    p = params
    d_op, ddag, n_d = ladder(dim_c)
    b, bdag, n_b = ladder(dim_m)
    eye_c, eye_m = np.eye(dim_c, dtype=complex), np.eye(dim_m, dtype=complex)
    th_up, th_dn = channel_coefficients(p).tolist()[:2]
    abar = math.sqrt(p.nbar_photon)
    mech = p.g1 * (b + bdag) + (p.g2 / 2.0) * (2.0 * n_b + b @ b + bdag @ bdag)
    h = (
        p.delta * np.kron(n_d, eye_m)
        + p.omega_m * np.kron(eye_c, n_b)
        + abar * np.kron(d_op + ddag, mech)
    )
    channels = [
        (np.kron(d_op, eye_m), p.kappa),
        (np.kron(eye_c, b), th_dn),
        (np.kron(eye_c, bdag), th_up),
    ]
    return LindbladGenerator(
        hamiltonian=h,
        channels=channels,
        time_scale=p.kappa,
        subsystem_dims=(dim_c, dim_m),
        labels=BIPARTITE_CHANNELS,
    )


def solve_ivp(fun, t_eval, y0, reduce):
    """DOP853 from ``t_eval[0]`` to ``t_eval[-1]``, the states at ``t_eval``
    handed to ``reduce`` in order, at most 16 at a time.

    Steps ``scipy.integrate.DOP853`` (rtol 1e-8, atol 1e-12) as
    ``solve_ivp(..., t_eval=t_eval)`` does and evaluates each step's dense
    output at the grid points it covers, so the states carry the same bits.
    They are written into one reused (16, len(y0)) buffer, which goes to
    ``reduce`` each time it fills and once more, partly filled, at the end;
    ``reduce`` must copy what it keeps. Returns ``success``, the failed
    step's ``message`` and ``nfev``, the right-hand-side call count. It
    keeps scipy's name because qndbench's tracer wraps
    ``lindblad.solve_ivp`` and reads ``nfev`` from its result.
    """
    from scipy import integrate

    solver = integrate.DOP853(fun, float(t_eval[0]), y0, float(t_eval[-1]),
                              rtol=1e-8, atol=1e-12)
    block = np.empty((16, solver.n), dtype=solver.y.dtype)
    filled = done = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            break
        covered = int(np.searchsorted(t_eval, solver.t, side="right"))
        # DOP853's dense output costs three more right-hand-side calls, so
        # only a step that covers a grid point builds it, as in solve_ivp
        if covered > done:
            sol = solver.dense_output()
        while covered > done:
            take = min(covered - done, 16 - filled)
            block[filled:filled + take] = sol(t_eval[done:done + take]).T
            filled, done = filled + take, done + take
            if filled == 16:
                reduce(block)
                filled = 0
    if filled:
        reduce(block[:filled])
    return SimpleNamespace(success=solver.status == "finished",
                           message=message, nfev=solver.nfev)


def evolve(
    gen: LindbladGenerator,
    rho0,
    t_final: float,
    grid: int = 201,
    store_states: bool = False,
) -> EvolutionResult:
    """Integrate d(rho)/dt = gen.apply(rho) from rho0 over [0, t_final] seconds.

    Adaptive DOP853 stepping with relative tolerance 1e-8 and absolute
    tolerance 1e-12; no trace renormalization is applied, trace drift
    shows up in the diagnostics. Raises on integrator stall, naming the
    stiffness ratio. The grid states are reduced to populations and
    diagnostics 16 at a time and dropped, so memory does not grow with
    ``grid`` beyond the result rows, unless ``store_states`` keeps a copy
    of every state.
    """
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ValueError("t_final must be positive and finite")
    if grid < 2:
        raise ValueError("need at least two grid points")
    r0 = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0, complex)
    d = gen.dim
    if r0.shape != (d, d):
        raise ValueError("initial state has wrong dimension")
    ts = gen.time_scale
    sup = gen.superoperator() / ts
    tau_grid = np.linspace(0.0, t_final * ts, grid)
    parts = []
    snapshots = [] if store_states else None

    def reduce(block):
        rhos = block.reshape(-1, d, d)
        adj = rhos.conj().transpose(0, 2, 1)
        parts.append((
            gen.mech_populations(rhos),
            np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0),
            np.max(np.abs(rhos - adj), axis=(1, 2)),
            np.linalg.eigvalsh((rhos + adj) / 2.0)[:, 0],
        ))
        if store_states:
            snapshots.extend(rhos.copy())

    sol = solve_ivp(
        lambda _tau, y: sup @ y, tau_grid, r0.reshape(-1).astype(complex), reduce
    )
    if not sol.success:
        w_max = max((w for _, w in gen.channels), default=0.0)
        raise RuntimeError(
            "integration stalled; stiffness ratio (max channel weight x "
            "t_final) = %.3g: %s" % (w_max * t_final, sol.message)
        )
    # parts hold the result columns after times, in the fields' order
    return EvolutionResult(
        tau_grid / ts, *map(np.concatenate, zip(*parts)), snapshots=snapshots
    )


def steady_state(gen: LindbladGenerator) -> DensityMatrix:
    """Unique fixed point: sparse LU solve, trace row in place of row 0.

    Raises "non-unique steady state" when the LU factors are singular or
    their pivot gap min|U_ii| / max|U_ii| is below 1e-10. The result
    satisfies gen.apply(rho) = 0 to 1e-10 relative to the generator's rate
    scale.
    """
    from scipy.sparse.linalg import splu

    d = gen.dim
    scale = gen.rate_scale()
    sup = (gen.superoperator() / scale).tolil()
    sup[0, :] = 0.0
    sup[0, np.arange(d) * (d + 1)] = 1.0
    try:
        lu = splu(sup.tocsc())
        pivots = np.abs(lu.U.diagonal())
        gap = pivots.min() / pivots.max()
    except RuntimeError:  # splu: "Factor is exactly singular"
        gap = 0.0
    if gap < 1e-10:
        raise ValueError("non-unique steady state (LU pivot gap %.3g below 1e-10)"
                         % gap)
    trace_one = np.zeros(d * d, dtype=complex)
    trace_one[0] = 1.0
    rho = lu.solve(trace_one).reshape(d, d)
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    resid = np.max(np.abs(gen.apply(rho))) / scale
    if resid > 1e-10:
        raise ValueError("steady-state residual %.3g exceeds 1e-10" % resid)
    return DensityMatrix(rho)


def extract_transition_rate(
    gen: LindbladGenerator,
    from_state,
    to_state: int,
    t_start: float,
    t_final: float,
) -> float:
    """Initial-growth rate (1/s) of a target population.

    Evolves the pure ``from_state`` (an int for phonon-only generators, a
    (cavity, mech) pair for bipartite ones) and fits a straight line to
    the ``to_state`` population over [t_start, t_final]; t_start should
    skip the cavity dressing transient, and the window must stay short
    against 1/rate so the growth is linear. A poor fit (R^2 below 0.995)
    raises with the advice to shorten the window.
    """
    if not 0.0 <= t_start < t_final:
        raise ValueError("need 0 <= t_start < t_final")
    levels = gen.dim if gen.subsystem_dims is None else gen.subsystem_dims[1]
    if not 0 <= to_state < levels:
        raise ValueError("to_state must lie in 0..%d" % (levels - 1))
    if gen.subsystem_dims is None:
        if not isinstance(from_state, (int, np.integer)):
            raise ValueError("phonon-only generator takes an integer from_state")
        rho0 = fock_state(gen.dim, int(from_state))
    else:
        dc, dm = gen.subsystem_dims
        ic, nm = from_state
        rho0 = product_state(fock_state(dc, int(ic)), fock_state(dm, int(nm)))
    res = evolve(gen, rho0, t_final)
    mask = res.times >= t_start
    if int(mask.sum()) < 8:
        raise ValueError("fewer than 8 grid points in the fit window")
    t = res.times[mask]
    y = res.populations[mask, int(to_state)]
    slope, intercept = np.polyfit(t, y, 1)
    fit = intercept + slope * t
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0.0:
        return 0.0
    r2 = 1.0 - ss_res / ss_tot
    if r2 < 0.995:
        raise ValueError(
            "population growth is nonlinear over the window (R^2 = %.6f); "
            "shorten the fit window" % r2
        )
    return float(slope)
