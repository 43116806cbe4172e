"""Per-Fock-state transition rates, measurement rate, and feasibility checks.

Rates are always evaluated from the exact Lorentzian photon-number spectrum;
the sideband-resolved closed forms for the ground state are exposed
separately as labeled approximations. Every rate is stated once in floats
(:func:`channel_coefficients`, rad/s) and once in exact Fractions of the
Hz-level inputs (:func:`_exact_coefficients`), both multiplied out by
:func:`_multiplied`. A rate in Hz is its rad/s value over 2*pi, so ratios of
the exact rates are the rad/s ratios; the verdict quantities (hierarchy
ratios, margins, monitorable-state bound) are formed from them so decimal
parameter sets give bit-exact reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .cavity import photon_number_spectrum
from .system import SystemParams, _exact_cooperativities, cooperativities

# Event channels in the frozen order of channel_coefficients.
CHANNELS = (
    "thermal_up",
    "thermal_down",
    "opt_up1",
    "opt_down1",
    "opt_up2",
    "opt_down2",
)

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
    ok: bool


def channel_coefficients(params: SystemParams) -> np.ndarray:
    """Six per-state rate coefficients (rad/s) in :data:`CHANNELS` order.

    Rates at state n are coeff * (n+1), *n, *(n+1), *n, *(n+1)(n+2),
    *n(n-1) respectively (:func:`_multiplied`). This is the one float
    statement of the channel weights; the samplers, the reduced generator
    and :func:`transition_rates` all take them from here.
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


def _exact_coefficients(params: SystemParams) -> list:
    """:func:`channel_coefficients` as exact Fractions, in Hz."""
    p = params
    nth, gm, kap, dlt, wm, g1, g2, nph = map(
        Fraction,
        (p.nbar_th, p.gamma_m_hz, p.kappa_hz, p.delta_hz, p.omega_m_hz,
         p.g1_hz, p.g2_hz, p.nbar_photon),
    )

    def s_nn(omega):
        return nph * kap / ((omega - dlt) ** 2 + (kap / 2) ** 2)

    g1sq, g2sq = g1 * g1, g2 * g2
    return [
        gm * nth,
        gm * (nth + 1),
        g1sq * s_nn(-wm),
        g1sq * s_nn(wm),
        g2sq / 4 * s_nn(-2 * wm),
        g2sq / 4 * s_nn(2 * wm),
    ]


def _multiplied(coeffs, fn):
    """Six channel rates at Fock index ``fn``.

    ``fn`` is a float, a float array, or an int with Fraction coefficients;
    on a float, ``fn + 1`` is exactly ``fn + 1.0``.
    """
    th_up, th_dn, a1, b1, a2, b2 = coeffs
    return (
        th_up * (fn + 1),
        th_dn * fn,
        a1 * (fn + 1),
        b1 * fn,
        a2 * (fn + 1) * (fn + 2),
        b2 * fn * (fn - 1),
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
    occupancy is exactly zero and the quadratic coupling is not.
    """
    return cooperativities(params).q2


def _monitorable(c2: Fraction, nth: Fraction) -> tuple[float, int | None]:
    raw = (c2 - nth) / (2 * nth + 1)
    return float(raw), (None if raw < 0 else math.floor(raw))


def max_monitorable_state(params: SystemParams) -> tuple[float, int | None]:
    """Largest continuously monitorable Fock state.

    Returns the raw bound (C2 - nbar_th) / (2 nbar_th + 1) and its floor;
    the floor is None when the raw value is negative (no state can be
    monitored). Exact rational arithmetic, so the floor is free of
    round-off at integer boundaries.
    """
    c2 = _exact_cooperativities(params)[1]
    return _monitorable(c2, Fraction(params.nbar_th))


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
    32*omega_m^2/kappa^2. Each ratio is formed exactly from the Hz-level
    inputs and rounded once.
    """
    if not dominance > 1.0:
        raise ValueError("dominance factor must exceed 1")
    if n < 0:
        raise ValueError("Fock index must be non-negative")
    p = params
    nth, gm, kap, wm, g1, g2 = map(
        Fraction,
        (p.nbar_th, p.gamma_m_hz, p.kappa_hz, p.omega_m_hz, p.g1_hz, p.g2_hz),
    )
    th_up, th_dn, up1, down1, up2, down2 = _multiplied(_exact_coefficients(p), n)
    th = th_up + th_dn
    _, c2, q1, q2 = _exact_cooperativities(p)

    def ratio(num, den) -> float:
        if den == 0:
            return math.inf  # vacuous check, passes
        return float(num / den)

    def inv_ratio(coeff, q) -> float:
        # pass-ratio for a "q * kappa^2 / (coeff * omega_m^2) << 1" condition
        if q == 0:
            return math.inf
        if q is math.inf:
            return 0.0
        return float(coeff * wm * wm / (q * kap * kap))

    ratios = {
        "meas_over_thermal": ratio(c2 * gm, th),  # Gamma_meas = C2 * Gamma_m
        "thermal_over_up1": ratio(th, up1),
        "thermal_over_down1": ratio(th, down1),
        "thermal_over_up2": ratio(th, up2),
        "thermal_over_down2": ratio(th, down2),
        "quantum_coop2": float(q2),
        "ground_linear": inv_ratio(4, q1),
        "ground_quadratic": inv_ratio(32, q2),
        "linear_limit": (
            math.inf if g1 == 0 else float(2 * g2 * wm / (g1 * kap))
        ),
        "sideband_resolution": float(32 * wm * wm / (kap * kap)),
    }
    checks = {name: ratios[name] >= dominance for name in CHECK_NAMES}
    n_max, n_floor = _monitorable(c2, nth)
    return FeasibilityReport(
        n=n,
        dominance=float(dominance),
        n_max=n_max,
        n_max_floor=n_floor,
        ratios=ratios,
        checks=checks,
        ok=all(checks.values()),
    )


def rate_table(params: SystemParams, n_top: int):
    """Rows of every rate for n = 0..n_top normalized by Gamma_th0.

    Returns (header, rows) where each row is a list of floats ordered as
    the header names. Row n holds the :class:`RateSet` of
    :func:`transition_rates`, summed in the same order, over Gamma_th0.
    """
    if n_top < 0:
        raise ValueError("n_top must be non-negative (got %d)" % n_top)
    p = params
    th0 = p.nbar_th * p.gamma_m
    if th0 <= 0.0:
        raise ValueError("normalization requires nbar_th > 0 and gamma_m > 0")
    header = [f.name for f in fields(RateSet)]
    r0, r1, up1, down1, up2, down2 = channel_rates(p, n_top + 1).T
    th = r0 + r1
    total = th + up1 + down1 + up2 + down2
    meas = np.full(n_top + 1, measurement_rate(p))
    columns = [up1, down1, up2, down2, th, meas, total]
    rows = np.column_stack([np.arange(n_top + 1.0)] + [c / th0 for c in columns])
    return header, rows.tolist()
