"""Per-Fock-state transition rates, measurement rate, and feasibility checks.

Rates are always evaluated from the exact Lorentzian photon-number spectrum;
the sideband-resolved closed forms for the ground state are exposed
separately as labeled approximations. Dimensionless verdict quantities
(monitorable-state bound, hierarchy ratios, margins) go through exact
rational arithmetic on the Hz-level inputs so decimal parameter sets give
bit-exact reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cavity import photon_number_spectrum
from .system import SystemParams, cooperativities

# Frozen order of feasibility checks; every ratio passes iff >= dominance.
CHECK_NAMES = (
    "meas_over_thermal",
    "thermal_over_up1",
    "thermal_over_down1",
    "thermal_over_up2",
    "thermal_over_down2",
    "quantum_coop2",
    "ground_linear",
    "ground_quadratic",
    "linear_limit",
    "sideband_resolution",
)


@dataclass(frozen=True)
class RateSet:
    """All rates touching Fock state n, in rad/s."""

    n: int
    gamma_up1: float  # n -> n+1, single-phonon absorption
    gamma_down1: float  # n -> n-1, single-phonon emission
    gamma_up2: float  # n -> n+2
    gamma_down2: float  # n -> n-2
    gamma_th: float  # thermal decoherence of state n
    gamma_meas: float  # number-resolving measurement rate (state independent)
    total_decoherence: float  # sum of the five jump rates above


@dataclass(frozen=True)
class GroundStateRates:
    """Ground-state rates; closed forms assume zero detuning.

    gamma_1 and gamma_2 are the exact Lorentzian 0->1 and 0->2 rates;
    the _closed fields carry the sideband-resolved approximations
    N*g1^2*kappa/omega_m^2 and N*g2^2*kappa/(8*omega_m^2). ``detuned`` is
    set when delta != 0, in which case only the exact forms apply.
    """

    gamma_th0: float
    gamma_1: float
    gamma_2: float
    gamma_1_closed: float
    gamma_2_closed: float
    detuned: bool


@dataclass(frozen=True)
class FeasibilityReport:
    """QND feasibility verdict at Fock state n.

    Every boolean in ``checks`` is exactly ``ratios[name] >= dominance``;
    the ratios are retained so a caller can re-judge with a different
    dominance factor. ``n_max_floor`` is None when not even the ground
    state is monitorable.
    """

    n: int
    dominance: float
    n_max: float
    n_max_floor: int | None
    ratios: dict
    checks: dict
    linear_limit_margin: float
    sideband_margin: float
    ok: bool


def channel_coefficients(params: SystemParams) -> np.ndarray:
    """Six per-state rate coefficients in frozen channel order.

    Channels: thermal up/down, one-phonon optical up/down, two-phonon
    optical up/down. Rates at state n are coeff * (n+1), *n, *(n+1), *n,
    *(n+1)(n+2), *n(n-1) respectively. This is the one float statement
    of the channel weights; the samplers, the reduced generator and
    :func:`transition_rates` all take them from here.
    """
    p = params

    def s_nn(omega):
        return photon_number_spectrum(omega, p.delta, p.kappa, p.nbar_photon)

    g1sq, g2sq = p.g1 * p.g1, p.g2 * p.g2
    return np.array(
        [
            p.gamma_m * p.nbar_th,
            p.gamma_m * (p.nbar_th + 1.0),
            g1sq * s_nn(-p.omega_m),
            g1sq * s_nn(p.omega_m),
            (g2sq / 4.0) * s_nn(-2.0 * p.omega_m),
            (g2sq / 4.0) * s_nn(2.0 * p.omega_m),
        ]
    )


def _multiplied(coeffs, fn):
    """Six channel rates at Fock index ``fn`` (a float or a float array)."""
    th_up, th_dn, a1, b1, a2, b2 = coeffs
    return (
        th_up * (fn + 1.0),
        th_dn * fn,
        a1 * (fn + 1.0),
        b1 * fn,
        a2 * (fn + 1.0) * (fn + 2.0),
        b2 * fn * (fn - 1.0),
    )


def channel_rates(params: SystemParams, n_cap: int) -> np.ndarray:
    """Per-channel jump rates of states 0..n_cap-1, shape ``(n_cap, 6)``.

    Row n is coefficient times multiplicity in the frozen channel order,
    each product evaluated left to right; the jump-chain kernels draw from
    the running sums of these rows.
    """
    fn = np.arange(n_cap, dtype=np.float64)
    coeffs = channel_coefficients(params).tolist()
    return np.column_stack(_multiplied(coeffs, fn))


def transition_rates(params: SystemParams, n: int) -> RateSet:
    """Jump rates out of Fock state n (exact Lorentzian forms).

    Row n of :func:`channel_rates`, summed as the jump-chain kernels sum it,
    so these are exactly the rates the sampler draws from.
    """
    if n < 0:
        raise ValueError("Fock index must be non-negative")
    r0, r1, up1, down1, up2, down2 = _multiplied(
        channel_coefficients(params).tolist(), float(n)
    )
    th = r0 + r1
    return RateSet(
        n=n,
        gamma_up1=up1,
        gamma_down1=down1,
        gamma_up2=up2,
        gamma_down2=down2,
        gamma_th=th,
        gamma_meas=measurement_rate(params),
        total_decoherence=th + up1 + down1 + up2 + down2,
    )


def ground_state_rates(params: SystemParams) -> GroundStateRates:
    """Thermal, 0->1 and 0->2 rates from the ground state."""
    p = params
    r0 = transition_rates(p, 0)
    wm2 = p.omega_m * p.omega_m
    closed_1 = p.nbar_photon * p.g1 * p.g1 * p.kappa / wm2
    closed_2 = p.nbar_photon * p.g2 * p.g2 * p.kappa / (8.0 * wm2)
    return GroundStateRates(
        gamma_th0=p.nbar_th * p.gamma_m,
        gamma_1=r0.gamma_up1,
        gamma_2=r0.gamma_up2,
        gamma_1_closed=closed_1,
        gamma_2_closed=closed_2,
        detuned=(p.delta != 0.0),
    )


def measurement_rate(params: SystemParams) -> float:
    """Number-state collapse rate 4*N*g2^2/kappa (rad/s)."""
    p = params
    return 4.0 * p.nbar_photon * p.g2 * p.g2 / p.kappa


def number_dephasing_weight(params: SystemParams) -> float:
    """Weight of the photon-mediated b'b dephasing channel (rad/s).

    2*N*g2^2*Re{chi_c(0)}; coincides with :func:`measurement_rate` at zero
    detuning but is kept under its own name because the two enter the
    formalism in different roles.
    """
    p = params
    re_chi0 = (p.kappa / 2.0) / (p.delta * p.delta + (p.kappa / 2.0) ** 2)
    return 2.0 * p.nbar_photon * p.g2 * p.g2 * re_chi0


def measurement_to_thermal_ratio(params: SystemParams) -> float:
    """Gamma_meas / Gamma_th0, evaluated in exact rational arithmetic.

    Equals the quadratic quantum cooperativity; infinite when the bath
    occupancy is exactly zero.
    """
    return cooperativities(params).q2


def _rate_fractions(params: SystemParams, n: int) -> dict:
    """Hz-level jump rates out of state n as exact Fractions."""
    p = params
    nbar = p.hz_fraction("nbar_photon")
    nth = p.hz_fraction("nbar_th")
    kap = p.hz_fraction("kappa")
    dlt = p.hz_fraction("delta")
    wm = p.hz_fraction("omega_m")
    g1, g2 = p.hz_fraction("g1"), p.hz_fraction("g2")
    gm = p.hz_fraction("gamma_m")

    def s_nn(omega: Fraction) -> Fraction:
        return nbar * kap / ((omega - dlt) ** 2 + (kap / 2) ** 2)

    return {
        "up1": (n + 1) * g1 * g1 * s_nn(-wm),
        "down1": n * g1 * g1 * s_nn(wm),
        "up2": (n + 1) * (n + 2) * (g2 * g2 / 4) * s_nn(-2 * wm),
        "down2": n * (n - 1) * (g2 * g2 / 4) * s_nn(2 * wm),
        "th": gm * ((nth + 1) * n + nth * (n + 1)),
        "meas": 4 * nbar * g2 * g2 / kap,
        "th0": nth * gm,
    }


def max_monitorable_state(params: SystemParams) -> tuple[float, int | None]:
    """Largest continuously monitorable Fock state.

    Returns the raw bound (C2 - nbar_th) / (2 nbar_th + 1) and its floor;
    the floor is None when the raw value is negative (no state can be
    monitored). Exact rational arithmetic, so the floor is free of
    round-off at integer boundaries.
    """
    p = params
    nbar = p.hz_fraction("nbar_photon")
    nth = p.hz_fraction("nbar_th")
    kap = p.hz_fraction("kappa")
    g2 = p.hz_fraction("g2")
    gm = p.hz_fraction("gamma_m")
    c2 = 4 * nbar * g2 * g2 / (kap * gm)
    raw = (c2 - nth) / (2 * nth + 1)
    if raw < 0:
        return float(raw), None
    return float(raw), int(math.floor(raw))


def feasibility(
    params: SystemParams, n: int, dominance: float = 10.0
) -> FeasibilityReport:
    """Evaluate the QND rate hierarchy at Fock state n.

    Each ">>" in the hierarchy is judged as ratio >= dominance. The
    report stores, in fixed order: the measurement-over-thermal ratio and
    the four thermal-over-optical ratios at state n; the three
    ground-state conditions (quadratic quantum cooperativity, inverse
    linear-contamination ratio 4*omega_m^2/(Q1*kappa^2), inverse
    quadratic-backaction ratio 32*omega_m^2/(Q2*kappa^2)); the
    linear-limit margin 2*g2*omega_m/(g1*kappa); and the sideband margin
    32*omega_m^2/kappa^2.
    """
    if dominance <= 1.0:
        raise ValueError("dominance factor must exceed 1")
    if n < 0:
        raise ValueError("Fock index must be non-negative")
    p = params
    fr = _rate_fractions(p, n)
    nth = p.hz_fraction("nbar_th")
    kap = p.hz_fraction("kappa")
    wm = p.hz_fraction("omega_m")
    g1, g2 = p.hz_fraction("g1"), p.hz_fraction("g2")
    gm = p.hz_fraction("gamma_m")
    nbar = p.hz_fraction("nbar_photon")

    def ratio(num, den) -> float:
        if den == 0:
            return math.inf  # vacuous check, passes
        return float(num / den)

    c1 = 4 * nbar * g1 * g1 / (kap * gm)
    c2 = 4 * nbar * g2 * g2 / (kap * gm)
    q1 = math.inf if nth == 0 else c1 / nth
    q2 = math.inf if nth == 0 else c2 / nth

    def inv_ratio(coeff, q) -> float:
        # pass-ratio for a "q * kappa^2 / (coeff * omega_m^2) << 1" condition
        if q == 0:
            return math.inf
        if q is math.inf:
            return 0.0
        return float(coeff * wm * wm / (q * kap * kap))

    ratios = {
        "meas_over_thermal": ratio(fr["meas"], fr["th"]),
        "thermal_over_up1": ratio(fr["th"], fr["up1"]),
        "thermal_over_down1": ratio(fr["th"], fr["down1"]),
        "thermal_over_up2": ratio(fr["th"], fr["up2"]),
        "thermal_over_down2": ratio(fr["th"], fr["down2"]),
        "quantum_coop2": float(q2),
        "ground_linear": inv_ratio(4, q1),
        "ground_quadratic": inv_ratio(32, q2),
        "linear_limit": (
            math.inf if g1 == 0 else float(2 * g2 * wm / (g1 * kap))
        ),
        "sideband_resolution": float(32 * wm * wm / (kap * kap)),
    }
    checks = {name: ratios[name] >= dominance for name in CHECK_NAMES}
    n_max, n_floor = max_monitorable_state(p)
    return FeasibilityReport(
        n=n,
        dominance=float(dominance),
        n_max=n_max,
        n_max_floor=n_floor,
        ratios=ratios,
        checks=checks,
        linear_limit_margin=ratios["linear_limit"],
        sideband_margin=ratios["sideband_resolution"],
        ok=all(checks.values()),
    )


def rate_table(params: SystemParams, n_top: int):
    """Rows of every rate for n = 0..n_top normalized by Gamma_th0.

    Returns (header, rows) where each row is a list of floats ordered as
    the header names. Used for the rate-versus-n data table.
    """
    p = params
    th0 = p.nbar_th * p.gamma_m
    if th0 <= 0.0:
        raise ValueError("normalization requires nbar_th > 0 and gamma_m > 0")
    header = [
        "n",
        "gamma_up1",
        "gamma_down1",
        "gamma_up2",
        "gamma_down2",
        "gamma_th",
        "gamma_meas",
        "total_decoherence",
    ]
    rows = []
    for n in range(n_top + 1):
        r = transition_rates(p, n)
        rows.append(
            [
                float(n),
                r.gamma_up1 / th0,
                r.gamma_down1 / th0,
                r.gamma_up2 / th0,
                r.gamma_down2 / th0,
                r.gamma_th / th0,
                r.gamma_meas / th0,
                r.total_decoherence / th0,
            ]
        )
    return header, rows
