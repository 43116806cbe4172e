"""Two coupled optical modes sharing one mechanical resonator.

Covers the supermode picture behind membrane-in-the-middle (MIM) and
whispering-gallery-mode (WGM) geometries: hybridization at the avoided
crossing, the quasistatic quadratic coupling it induces, backscatter
population of the undriven mode, and the rules for collapsing the pair
back onto the single-mode rate formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import ladder
from .system import _require_finite


@dataclass(frozen=True)
class TwoModeParams:
    """Two optical modes coupled to each other and to one mechanical mode.

    ``nu`` is the photon exchange rate between the bare modes (tunneling
    through a membrane, or backscattering between circulating modes).
    G1/G2 are the per-mode frequency-pull coefficients in rad/s per meter
    and rad/s per meter squared.
    """

    omega_1: float
    omega_2: float
    nu: float
    G1_a1: float = 0.0
    G1_a2: float = 0.0
    G2_a1: float = 0.0
    G2_a2: float = 0.0
    kappa: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.omega_1 <= 0 or self.omega_2 <= 0:
            raise ValueError("optical frequencies must be positive")
        if self.nu < 0:
            raise ValueError("mode coupling nu must be non-negative")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")

    @classmethod
    def degenerate(cls, omega_0, nu, **kwargs) -> "TwoModeParams":
        return cls(omega_1=omega_0, omega_2=omega_0, nu=nu, **kwargs)

    @classmethod
    def mim(cls, omega_0, nu, G1, kappa=0.0, delta=0.0) -> "TwoModeParams":
        """Membrane geometry: opposite linear pulls, no bare quadratic term."""
        return cls(
            omega_1=omega_0, omega_2=omega_0, nu=nu,
            G1_a1=G1, G1_a2=-G1, kappa=kappa, delta=delta,
        )

    @classmethod
    def wgm(cls, omega_0, nu, G1, G2, kappa=0.0, delta=0.0) -> "TwoModeParams":
        """Circulating-mode geometry: both modes pulled identically."""
        return cls(
            omega_1=omega_0, omega_2=omega_0, nu=nu,
            G1_a1=G1, G1_a2=G1, G2_a1=G2, G2_a2=G2,
            kappa=kappa, delta=delta,
        )

    @property
    def is_degenerate(self) -> bool:
        return self.omega_1 == self.omega_2

    @property
    def omega_0(self) -> float:
        if not self.is_degenerate:
            raise ValueError("omega_0 is defined only for degenerate modes")
        return self.omega_1

    @property
    def omega_plus(self) -> float:
        return self.omega_0 + self.nu

    @property
    def omega_minus(self) -> float:
        return self.omega_0 - self.nu

    # coupling combinations that survive the change of basis
    @property
    def g1_sum(self) -> float:
        return (self.G1_a1 + self.G1_a2) / 2.0

    @property
    def g1_difference(self) -> float:
        return (self.G1_a1 - self.G1_a2) / 2.0

    @property
    def g2_sum(self) -> float:
        return (self.G2_a1 + self.G2_a2) / 4.0

    @property
    def g2_difference(self) -> float:
        return (self.G2_a1 - self.G2_a2) / 4.0

    @property
    def is_mim_form(self) -> bool:
        return (
            self.is_degenerate
            and self.G1_a1 == -self.G1_a2
            and self.G2_a1 == 0.0
            and self.G2_a2 == 0.0
        )


def _three_mode(op1, op2, op_m) -> np.ndarray:
    return np.kron(np.kron(op1, op2), op_m)


def _check_mech(x_zpf: float, omega_m: float) -> None:
    if not (x_zpf > 0 and math.isfinite(x_zpf)):
        raise ValueError("x_zpf must be positive and finite (got %r)" % x_zpf)
    if not math.isfinite(omega_m):
        raise ValueError("omega_m must be finite (got %r)" % omega_m)


def twomode_hamiltonian(
    p: TwoModeParams,
    dim: int,
    dim_mech: int | None = None,
    x_zpf: float = 1.0,
    omega_m: float = 0.0,
) -> np.ndarray:
    """H in the bare a1/a2 basis, rad/s, on mode1 x mode2 x mechanics.

    Position enters as x = x_zpf (b + b^dag); with the default x_zpf = 1 m
    the G coefficients are read directly as rad/s per phonon-quadrature
    unit, which keeps structural tests free of scale factors.
    """
    _check_mech(x_zpf, omega_m)
    dm = dim if dim_mech is None else dim_mech
    a, adag, n_op = ladder(dim)
    b, bdag, n_b = ladder(dm)
    i_o = np.eye(dim, dtype=complex)
    i_m = np.eye(dm, dtype=complex)
    x_op = x_zpf * (b + bdag)
    x2_op = x_op @ x_op

    h = (
        p.omega_1 * _three_mode(n_op, i_o, i_m)
        + p.omega_2 * _three_mode(i_o, n_op, i_m)
        + omega_m * _three_mode(i_o, i_o, n_b)
        + p.nu
        * (
            _three_mode(adag, a, i_m)
            + _three_mode(a, adag, i_m)
        )
        + p.G1_a1 * _three_mode(n_op, i_o, x_op)
        + p.G1_a2 * _three_mode(i_o, n_op, x_op)
        + 0.5 * p.G2_a1 * _three_mode(n_op, i_o, x2_op)
        + 0.5 * p.G2_a2 * _three_mode(i_o, n_op, x2_op)
    )
    return h


def supermode_hamiltonian(
    p: TwoModeParams,
    dim: int,
    dim_mech: int | None = None,
    x_zpf: float = 1.0,
    omega_m: float = 0.0,
) -> np.ndarray:
    """H in the hybridized a+/a- basis, rad/s.

    The coupling terms split into sum combinations acting on each
    supermode's own population and difference combinations exchanging
    photons between the supermodes; with MIM signs only the exchange
    terms survive, with WGM signs only the population terms do.
    """
    if not p.is_degenerate:
        raise ValueError(
            "supermode basis requires degenerate bare modes "
            "(omega_1 == omega_2); build twomode_hamiltonian instead"
        )
    _check_mech(x_zpf, omega_m)
    dm = dim if dim_mech is None else dim_mech
    a, adag, n_op = ladder(dim)
    b, bdag, n_b = ladder(dm)
    i_o = np.eye(dim, dtype=complex)
    i_m = np.eye(dm, dtype=complex)
    x_op = x_zpf * (b + bdag)
    x2_op = x_op @ x_op

    pop = _three_mode(n_op, i_o, i_m) + _three_mode(i_o, n_op, i_m)
    exchange = _three_mode(adag, a, i_m) + _three_mode(a, adag, i_m)

    h = (
        p.omega_plus * _three_mode(n_op, i_o, i_m)
        + p.omega_minus * _three_mode(i_o, n_op, i_m)
        + omega_m * _three_mode(i_o, i_o, n_b)
        + p.g1_sum * (pop @ _three_mode(i_o, i_o, x_op))
        + p.g1_difference * (exchange @ _three_mode(i_o, i_o, x_op))
        + p.g2_sum * (pop @ _three_mode(i_o, i_o, x2_op))
        + p.g2_difference * (exchange @ _three_mode(i_o, i_o, x2_op))
    )
    return h


def mim_frequencies(p: TwoModeParams, x):
    """Exact hybridized branch frequencies at quasistatic displacement x.

    omega'_pm = omega_0 +/- sqrt(nu^2 + G1^2 x^2); even in x, so the
    frequency pull carries no linear term at the crossing.
    """
    if p.nu <= 0:
        raise ValueError("branch frequencies require nu > 0")
    if not p.is_mim_form:
        raise ValueError(
            "exact branch frequencies assume opposite linear pulls and no "
            "bare quadratic term (MIM form)"
        )
    g1 = p.g1_difference
    x = np.asarray(x, dtype=float)
    root = np.sqrt(p.nu * p.nu + g1 * g1 * x * x)
    w_plus = p.omega_0 + root
    w_minus = p.omega_0 - root
    if w_plus.ndim == 0:
        return float(w_plus), float(w_minus)
    return w_plus, w_minus


class EffectiveQuadratic(NamedTuple):
    G2_prime: float  # rad/s/m^2
    g2: float | None  # rad/s, present when x_zpf was supplied


def mim_effective_g2(p: TwoModeParams, x_zpf: float | None = None):
    """Quadratic coupling emerging at the avoided crossing: G2' = G1^2/2nu.

    With x_zpf, also returns the single-photon form g2 = g1^2/2nu where
    g1 = G1 x_zpf.
    """
    if p.nu == 0:
        raise ValueError(
            "nu = 0: the branches cross instead of avoiding each other and "
            "the quasistatic expansion is singular; there is no effective "
            "quadratic coupling at a degenerate crossing"
        )
    if not p.is_mim_form:
        raise ValueError("effective quadratic coupling assumes the MIM form")
    g1_coeff = p.g1_difference
    g2_prime = g1_coeff * g1_coeff / (2.0 * p.nu)
    if x_zpf is None:
        return EffectiveQuadratic(g2_prime, None)
    if x_zpf <= 0:
        raise ValueError("x_zpf must be positive")
    g1 = g1_coeff * x_zpf
    return EffectiveQuadratic(g2_prime, g1 * g1 / (2.0 * p.nu))


def backscatter_occupancy(nu: float, delta: float, kappa: float, N1: float) -> float:
    """Steady occupancy of the undriven partner mode.

    N2 = nu^2 / (delta^2 + (kappa/2)^2) * N1; the driven mode leaks into
    its counterpart through the coupling and the cavity linewidth sets
    how much accumulates.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if N1 < 0:
        raise ValueError("N1 must be non-negative")
    return nu * nu / (delta * delta + 0.25 * kappa * kappa) * N1


@dataclass(frozen=True)
class SingleModeMapping:
    """How to fold the mode pair into the single-mode rate formulas.

    In both classified regimes every transition rate uses the summed
    occupancy; only the measurement rate differs, picking up a factor
    1/2 when strong mixing parks half the photons in the unmonitored
    partner. ``candidates`` carries both (nbar, factor) options when the
    system sits between the limits and neither mapping is justified.
    """

    regime: str  # "weak", "strong", or "unclassified"
    nbar_effective: float
    measurement_factor: float | None
    nbar_1: float
    nbar_2: float
    candidates: tuple = ()


# dominance factor on 2nu/kappa before either limit is trusted
REGIME_DOMINANCE = 10.0


def single_mode_mapping(
    nu: float, kappa: float, delta: float, N1: float
) -> SingleModeMapping:
    n2 = backscatter_occupancy(nu, delta, kappa, N1)
    n_eff = N1 + n2
    split = 2.0 * nu / kappa
    if split * REGIME_DOMINANCE <= 1.0:
        return SingleModeMapping("weak", n_eff, 1.0, N1, n2)
    if split >= REGIME_DOMINANCE:
        return SingleModeMapping("strong", n_eff, 0.5, N1, n2)
    return SingleModeMapping(
        "unclassified",
        n_eff,
        None,
        N1,
        n2,
        candidates=((n_eff, 1.0), (n_eff, 0.5)),
    )
