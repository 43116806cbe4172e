"""System parameters and basic derived quantities.

All frequency-like attributes of :class:`SystemParams` are angular rates in
rad/s. Constructors that accept ordinary frequencies in Hz carry the ``_hz``
suffix or take Hz-keyed mappings; they multiply by 2*pi on ingestion and are
the only place that conversion happens. The raw Hz-level inputs are retained
so that dimensionless ratios (cooperativities, rate ratios, feasibility
margins) can be evaluated in exact rational arithmetic, free of 2*pi
round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from .constants import HBAR, K_B, TWO_PI

# Hz-level keys accepted by params_from_mapping, in documented order.
CONFIG_KEYS = (
    "omega_m_hz",
    "gamma_m_hz",
    "kappa_hz",
    "kappa_e_hz",
    "delta_hz",
    "g1_hz",
    "g2_hz",
    "temperature_k",
    "nbar_th",
    "nbar_photon",
    "power_w",
    "omega_d_hz",
    "mass_kg",
)


def thermal_occupancy(omega_m: float, temperature: float) -> float:
    """Bose-Einstein occupancy of a mode at ``omega_m`` (rad/s) and T (K).

    Raises ValueError for non-positive temperature.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive (got %g K)" % temperature)
    if omega_m <= 0.0:
        raise ValueError("omega_m must be positive")
    x = HBAR * omega_m / (K_B * temperature)
    if x > 700.0:  # exp would overflow; occupancy is zero to double precision
        return 0.0
    return 1.0 / math.expm1(x)


def temperature_for_occupancy(omega_m: float, nbar_th: float) -> float:
    """Inverse of :func:`thermal_occupancy`: bath temperature in K."""
    if nbar_th <= 0.0:
        raise ValueError("occupancy must be positive to define a temperature")
    return HBAR * omega_m / (K_B * math.log1p(1.0 / nbar_th))


class Cooperativities(NamedTuple):
    c1: float  # classical, linear coupling
    c2: float  # classical, quadratic coupling
    q1: float  # quantum, c1 / nbar_th (inf when the bath occupancy is zero)
    q2: float  # quantum, c2 / nbar_th


@dataclass(frozen=True)
class SystemParams:
    """Optomechanical system parameters (angular rates, rad/s).

    Attributes
    ----------
    omega_m, gamma_m : float
        Mechanical frequency and energy decay rate.
    kappa, kappa_e : float
        Total and external cavity decay rates, 0 < kappa_e <= kappa.
    delta : float
        Detuning parameter entering the cavity susceptibility
        1/(i*(delta + omega) + kappa/2).
    g1, g2 : float
        Single-photon linear and quadratic coupling rates (>= 0).
    nbar_th : float
        Mechanical bath occupancy (resolved at construction).
    nbar_photon : float
        Mean intracavity photon number (resolved at construction).
    temperature, power, omega_d, mass : float or None
        Originals when the bath/drive was specified indirectly; omega_d is
        the drive frequency in rad/s, mass the motional mass in kg.
    """

    omega_m: float
    gamma_m: float
    kappa: float
    kappa_e: float
    delta: float
    g1: float
    g2: float
    nbar_th: float
    nbar_photon: float
    temperature: float | None = None
    power: float | None = None
    omega_d: float | None = None
    mass: float | None = None
    # Raw Hz-level inputs (plus unitless fields) for exact ratio arithmetic.
    _hz: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.omega_m <= 0 or self.gamma_m <= 0 or self.kappa <= 0:
            raise ValueError("omega_m, gamma_m and kappa must be positive")
        if not (0.0 < self.kappa_e <= self.kappa):
            raise ValueError("kappa_e must satisfy 0 < kappa_e <= kappa")
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError("coupling rates g1, g2 must be non-negative")
        if self.nbar_th < 0:
            raise ValueError("nbar_th must be non-negative")
        if self.nbar_photon < 0:
            raise ValueError("nbar_photon must be non-negative")
        if self.mass is not None and self.mass <= 0:
            raise ValueError("mass must be positive")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_frequencies(
        cls,
        omega_m_hz: float,
        gamma_m_hz: float,
        kappa_hz: float,
        delta_hz: float,
        g1_hz: float,
        g2_hz: float,
        *,
        kappa_e_hz: float | None = None,
        temperature_k: float | None = None,
        nbar_th: float | None = None,
        nbar_photon: float | None = None,
        power_w: float | None = None,
        omega_d_hz: float | None = None,
        mass_kg: float | None = None,
    ) -> "SystemParams":
        """Build from ordinary frequencies in Hz.

        Exactly one of ``temperature_k``/``nbar_th`` must be given, and
        exactly one drive specification: ``nbar_photon`` or
        ``power_w`` together with ``omega_d_hz``. ``kappa_e_hz`` defaults to
        kappa/2 (critical coupling).
        """
        if (temperature_k is None) == (nbar_th is None):
            raise ValueError("give exactly one of temperature_k or nbar_th")
        if (nbar_photon is None) == (power_w is None):
            raise ValueError("give exactly one of nbar_photon or power_w")
        if power_w is not None and omega_d_hz is None:
            raise ValueError("power_w requires omega_d_hz")

        if kappa_e_hz is None:
            kappa_e_hz = kappa_hz / 2.0

        omega_m = TWO_PI * omega_m_hz
        kappa = TWO_PI * kappa_hz
        kappa_e = TWO_PI * kappa_e_hz
        delta = TWO_PI * delta_hz
        omega_d = TWO_PI * omega_d_hz if omega_d_hz is not None else None

        if nbar_th is None:
            nbar_th = thermal_occupancy(omega_m, temperature_k)
        if nbar_photon is None:
            if power_w < 0:
                raise ValueError("power_w must be non-negative")
            nbar_photon = (
                kappa_e / (delta**2 + (kappa / 2.0) ** 2) * power_w / (HBAR * omega_d)
            )

        hz = {
            "omega_m": float(omega_m_hz),
            "gamma_m": float(gamma_m_hz),
            "kappa": float(kappa_hz),
            "kappa_e": float(kappa_e_hz),
            "delta": float(delta_hz),
            "g1": float(g1_hz),
            "g2": float(g2_hz),
            "nbar_th": float(nbar_th),
            "nbar_photon": float(nbar_photon),
        }
        return cls(
            omega_m=omega_m,
            gamma_m=TWO_PI * gamma_m_hz,
            kappa=kappa,
            kappa_e=kappa_e,
            delta=delta,
            g1=TWO_PI * g1_hz,
            g2=TWO_PI * g2_hz,
            nbar_th=nbar_th,
            nbar_photon=nbar_photon,
            temperature=temperature_k,
            power=power_w,
            omega_d=omega_d,
            mass=mass_kg,
            _hz=hz,
        )

    # -- exact-ratio support ----------------------------------------------

    def hz_fraction(self, name: str) -> Fraction:
        """Hz-level value of ``name`` as an exact Fraction.

        Falls back to the stored angular value divided by 2*pi when the
        parameter set was not built from Hz inputs; ratios of such values
        are then exact in the stored doubles rather than in the inputs.
        """
        if self._hz is not None and name in self._hz:
            return Fraction(self._hz[name])
        value = getattr(self, name)
        if name in ("nbar_th", "nbar_photon"):
            return Fraction(value)
        return Fraction(value) / Fraction(TWO_PI)


def zero_point_amplitude(p: SystemParams) -> float:
    """Mechanical zero-point amplitude sqrt(hbar / (2 m omega_m)) in meters."""
    if p.mass is None:
        raise ValueError("zero-point amplitude requires the motional mass")
    return math.sqrt(HBAR / (2.0 * p.mass * p.omega_m))


def cooperativities(p: SystemParams) -> Cooperativities:
    """Classical and quantum cooperativities for both couplings.

    Evaluated with rational arithmetic on the Hz-level inputs so that
    decimal parameter sets give bit-exact reference values. The quantum
    cooperativities carry an infinite sentinel when the bath occupancy
    is exactly zero.
    """
    kap, gm = p.hz_fraction("kappa"), p.hz_fraction("gamma_m")
    nph = p.hz_fraction("nbar_photon")
    nth = p.hz_fraction("nbar_th")
    c = []
    for name in ("g1", "g2"):
        g = p.hz_fraction(name)
        c.append(4 * nph * g * g / (kap * gm))
    if nth == 0:
        q = [math.inf if ci > 0 else 0.0 for ci in c]
    else:
        q = [float(ci / nth) for ci in c]
    return Cooperativities(float(c[0]), float(c[1]), q[0], q[1])


def params_from_mapping(data: Mapping) -> SystemParams:
    """Build :class:`SystemParams` from a flat Hz-keyed mapping.

    Accepted keys are listed in :data:`CONFIG_KEYS`; anything else is an
    error naming the offending key.
    """
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(
            "unknown config key '%s' (accepted keys: %s)"
            % (unknown[0], ", ".join(CONFIG_KEYS))
        )
    required = ("omega_m_hz", "gamma_m_hz", "kappa_hz", "delta_hz", "g1_hz", "g2_hz")
    for key in required:
        if key not in data:
            raise ValueError("missing required config key '%s'" % key)
    numbers = {}
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError("config key '%s' must be a number" % key)
        numbers[key] = float(value)
    kwargs = {k: numbers[k] for k in required}
    for opt in ("kappa_e_hz", "temperature_k", "nbar_th", "nbar_photon",
                "power_w", "omega_d_hz", "mass_kg"):
        if opt in numbers:
            kwargs[opt] = numbers[opt]
    return SystemParams.from_frequencies(**kwargs)
