"""Per-Fock-state transition rates, cooperativities and feasibility checks.

Each rate formula is written once, as a private function of plain numbers
(:func:`_weights`, :func:`_measurement`, :func:`_closed_forms`). The float
rates pass the rad/s properties; the verdicts (cooperativities, hierarchy
ratios, monitorable-state bound) pass exact Fractions of the Hz fields
(:func:`_exact`) and round once, so decimal parameter sets give bit-exact
reference values. Ratios of Hz rates are the rad/s ratios. This is the only
module with exact arithmetic. Rates use the exact Lorentzian spectrum; the
sideband-resolved closed forms are labeled approximations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cavity import photon_number_spectrum
from .system import SystemParams

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


class Cooperativities(NamedTuple):
    c1: float  # classical, linear coupling
    c2: float  # classical, quadratic coupling
    q1: float  # quantum, c1 / nbar_th (inf when the bath occupancy is zero)
    q2: float  # quantum, c2 / nbar_th


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


def _weights(nth, gm, kap, dlt, wm, g1, g2, nph) -> list:
    """The six channel weights in :data:`CHANNELS` order.

    Plain arithmetic with integer constants, so floats give floats and
    Fractions give Fractions.
    """

    def s_nn(omega):
        return photon_number_spectrum(omega, dlt, kap, nph)

    g1sq, g2sq = g1 * g1, g2 * g2
    return [
        gm * nth,  # Gamma_th0
        gm * (nth + 1),
        g1sq * s_nn(-wm),
        g1sq * s_nn(wm),
        g2sq / 4 * s_nn(-2 * wm),
        g2sq / 4 * s_nn(2 * wm),
    ]


def _measurement(nph, g, kap):
    """Number-state collapse rate 4*N*g^2/kappa of a coupling g."""
    return 4 * nph * g * g / kap


def _closed_forms(nph, kap, wm, g1, g2) -> tuple:
    """Closed forms N*g1^2*kappa/omega_m^2 and N*g2^2*kappa/(8*omega_m^2)."""
    wm2 = wm * wm
    return nph * g1 * g1 * kap / wm2, nph * g2 * g2 * kap / (8 * wm2)


def _exact(p: SystemParams) -> tuple:
    """The arguments of :func:`_weights` as exact Fractions, in Hz."""
    hz = (p.nbar_th, p.gamma_m_hz, p.kappa_hz, p.delta_hz, p.omega_m_hz,
          p.g1_hz, p.g2_hz, p.nbar_photon)
    return tuple(map(Fraction, hz))


def channel_coefficients(params: SystemParams) -> np.ndarray:
    """Six per-state rate coefficients (rad/s) in :data:`CHANNELS` order.

    Rates at state n are coeff * (n+1), *n, *(n+1), *n, *(n+1)(n+2),
    *n(n-1) respectively (:func:`_multiplied`); coefficient 0 is the
    ground-state thermal rate Gamma_th0. The samplers, the generators and
    :func:`transition_rates` all take the weights from here.
    """
    p = params
    return np.array(
        _weights(p.nbar_th, p.gamma_m, p.kappa, p.delta, p.omega_m, p.g1, p.g2,
                 p.nbar_photon)
    )


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


def _fock_index(n) -> int:
    """``n`` as an int; numpy integers pass, a float or a negative raises."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError("Fock index must be an integer (got %r)" % (n,)) from None
    if n < 0:
        raise ValueError("Fock index must be non-negative")
    return n


def transition_rates(params: SystemParams, n: int) -> RateSet:
    """Jump rates out of Fock state n (exact Lorentzian forms).

    Row n of :func:`channel_rates`, summed as the jump-chain kernels sum it,
    so these are exactly the rates the sampler draws from.
    """
    n = _fock_index(n)
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
    closed_1, closed_2 = _closed_forms(p.nbar_photon, p.kappa, p.omega_m, p.g1, p.g2)
    return GroundStateRates(
        gamma_th0=float(channel_coefficients(p)[0]),
        gamma_1=r0.gamma_up1,
        gamma_2=r0.gamma_up2,
        gamma_1_closed=closed_1,
        gamma_2_closed=closed_2,
        detuned=(p.delta != 0.0),
    )


def measurement_rate(params: SystemParams) -> float:
    """Number-state collapse rate 4*N*g2^2/kappa (rad/s)."""
    p = params
    return _measurement(p.nbar_photon, p.g2, p.kappa)


def number_dephasing_weight(params: SystemParams) -> float:
    """Weight of the photon-mediated b'b dephasing channel (rad/s).

    2*N*g2^2*Re{chi_c(0)}; coincides with :func:`measurement_rate` at zero
    detuning but is kept under its own name because the two enter the
    formalism in different roles.
    """
    p = params
    re_chi0 = (p.kappa / 2.0) / (p.delta * p.delta + (p.kappa / 2.0) ** 2)
    return 2.0 * p.nbar_photon * p.g2 * p.g2 * re_chi0


def _exact_cooperativities(p: SystemParams) -> tuple:
    """(C1, C2, Q1, Q2) as exact Fractions of the Hz-level inputs.

    C = (4*N*g^2/kappa) / Gamma_m for g = g1, g2 and Q = C/nbar_th. At zero
    bath occupancy Q is the float inf when C > 0 and stays 0 when C = 0.
    """
    nth, gm, kap, _, _, g1, g2, nph = _exact(p)
    c1, c2 = (_measurement(nph, g, kap) / gm for g in (g1, g2))
    if nth == 0:
        return c1, c2, *(math.inf if c else c for c in (c1, c2))
    return c1, c2, c1 / nth, c2 / nth


def cooperativities(p: SystemParams) -> Cooperativities:
    """Classical and quantum cooperativities of both couplings: the exact
    values of :func:`_exact_cooperativities`, each rounded once.
    """
    return Cooperativities(*map(float, _exact_cooperativities(p)))


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
    ground-state conditions (quadratic quantum cooperativity, Gamma_th0
    over each closed form of :func:`ground_state_rates`, i.e.
    4*omega_m^2/(Q1*kappa^2) and 32*omega_m^2/(Q2*kappa^2)); the
    linear-limit margin 2*g2*omega_m/(g1*kappa); and the sideband margin
    32*omega_m^2/kappa^2. Each ratio is formed exactly from the Hz-level
    inputs and rounded once.
    """
    if not dominance > 1.0:
        raise ValueError("dominance factor must exceed 1")
    n = _fock_index(n)
    args = _exact(params)
    nth, gm, kap, _, wm, g1, g2, nph = args
    weights = _weights(*args)
    th_up, th_dn, up1, down1, up2, down2 = _multiplied(weights, n)
    th = th_up + th_dn
    closed_1, closed_2 = _closed_forms(nph, kap, wm, g1, g2)
    _, c2, _, q2 = _exact_cooperativities(params)

    def ratio(num, den) -> float:
        if den == 0:
            return math.inf  # vacuous check, passes
        return float(num / den)

    ratios = {
        "meas_over_thermal": ratio(c2 * gm, th),  # Gamma_meas = C2 * Gamma_m
        "thermal_over_up1": ratio(th, up1),
        "thermal_over_down1": ratio(th, down1),
        "thermal_over_up2": ratio(th, up2),
        "thermal_over_down2": ratio(th, down2),
        "quantum_coop2": float(q2),
        "ground_linear": ratio(weights[0], closed_1),  # Gamma_th0 / closed
        "ground_quadratic": ratio(weights[0], closed_2),
        "linear_limit": ratio(2 * g2 * wm, g1 * kap),
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
    th0 = float(channel_coefficients(p)[0])
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
