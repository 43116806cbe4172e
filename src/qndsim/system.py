"""System parameters, units and config parsing.

:class:`SystemParams` stores its frequency-like inputs as given: ordinary
frequencies in Hz, in fields with the ``_hz`` suffix. The angular rates in
rad/s that the dynamics use are read-only properties, 2*pi times the Hz
field, and are the only place that conversion happens. The rate formulas
and the exact rational arithmetic on the Hz fields live in :mod:`.rates`.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, fields
from typing import Mapping

from .constants import HBAR, K_B, TWO_PI


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


# The rad/s properties of SystemParams, each 2*pi times its "_hz" field.
ANGULAR_RATES = ("omega_m", "gamma_m", "kappa", "kappa_e", "delta", "g1", "g2")


@dataclass(frozen=True)
class SystemParams:
    """Optomechanical system parameters (ordinary frequencies, Hz).

    Attributes
    ----------
    omega_m_hz, gamma_m_hz : float
        Mechanical frequency and energy decay rate.
    kappa_hz, kappa_e_hz : float
        Total and external cavity decay rates, 0 < kappa_e <= kappa.
    delta_hz : float
        Detuning parameter entering the cavity susceptibility
        1/(i*(delta + omega) + kappa/2).
    g1_hz, g2_hz : float
        Single-photon linear and quadratic coupling rates (>= 0).
    nbar_th : float
        Mechanical bath occupancy, given or resolved from ``temperature_k``.
    nbar_photon : float
        Mean intracavity photon number, given or resolved from ``power_w``
        and ``omega_d_hz``. Those inputs are not kept.

    ``omega_m``, ``gamma_m``, ``kappa``, ``kappa_e``, ``delta``, ``g1`` and
    ``g2`` are the same rates in rad/s: 2*pi times the Hz field.
    """

    omega_m_hz: float
    gamma_m_hz: float
    kappa_hz: float
    kappa_e_hz: float
    delta_hz: float
    g1_hz: float
    g2_hz: float
    nbar_th: float
    nbar_photon: float

    omega_m = property(lambda self: TWO_PI * self.omega_m_hz)
    gamma_m = property(lambda self: TWO_PI * self.gamma_m_hz)
    kappa = property(lambda self: TWO_PI * self.kappa_hz)
    kappa_e = property(lambda self: TWO_PI * self.kappa_e_hz)
    delta = property(lambda self: TWO_PI * self.delta_hz)
    g1 = property(lambda self: TWO_PI * self.g1_hz)
    g2 = property(lambda self: TWO_PI * self.g2_hz)

    def __post_init__(self):
        # a finite Hz value can still overflow once multiplied by 2*pi
        _require_finite(self, ANGULAR_RATES)
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_frequencies(
        cls,
        *,
        omega_m_hz: float,
        gamma_m_hz: float,
        kappa_hz: float,
        kappa_e_hz: float | None = None,
        delta_hz: float,
        g1_hz: float,
        g2_hz: float,
        temperature_k: float | None = None,
        nbar_th: float | None = None,
        nbar_photon: float | None = None,
        power_w: float | None = None,
        omega_d_hz: float | None = None,
    ) -> "SystemParams":
        """Build from ordinary frequencies in Hz, resolving bath and drive.

        Exactly one of ``temperature_k``/``nbar_th`` must be given, and
        exactly one drive specification: ``nbar_photon`` or
        ``power_w`` together with ``omega_d_hz``. ``kappa_e_hz`` defaults to
        kappa/2 (critical coupling).
        """
        if (temperature_k is None) == (nbar_th is None):
            raise ValueError("give exactly one of temperature_k or nbar_th")
        if (nbar_photon is None) == (power_w is None):
            raise ValueError("give exactly one of nbar_photon or power_w")
        if power_w is not None and not (omega_d_hz or 0.0) > 0:
            raise ValueError("power_w requires a positive omega_d_hz")

        if kappa_e_hz is None:
            kappa_e_hz = kappa_hz / 2.0
        if nbar_th is None:
            nbar_th = thermal_occupancy(TWO_PI * omega_m_hz, temperature_k)
        if nbar_photon is None:
            if power_w < 0:
                raise ValueError("power_w must be non-negative")
            kappa, kappa_e, delta, omega_d = (
                TWO_PI * f for f in (kappa_hz, kappa_e_hz, delta_hz, omega_d_hz)
            )
            nbar_photon = (
                kappa_e / (delta**2 + (kappa / 2.0) ** 2) * power_w / (HBAR * omega_d)
            )

        return cls(
            omega_m_hz=omega_m_hz,
            gamma_m_hz=gamma_m_hz,
            kappa_hz=kappa_hz,
            kappa_e_hz=kappa_e_hz,
            delta_hz=delta_hz,
            g1_hz=g1_hz,
            g2_hz=g2_hz,
            nbar_th=nbar_th,
            nbar_photon=nbar_photon,
        )


def _require_finite(obj, derived=()) -> None:
    """Reject a NaN or infinite float field of a parameter dataclass, or
    of its ``derived`` attributes.
    """
    for name in [f.name for f in fields(obj)] + list(derived):
        value = getattr(obj, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("%s must be finite (got %r)" % (name, value))


def read_config(data, keys, required=()) -> dict:
    """Floats of a flat JSON config object: no key outside ``keys``, none
    of ``required`` missing, every value a finite number (bools are not).
    """
    if not isinstance(data, Mapping):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(
            "unknown config key '%s' (accepted keys: %s)"
            % (unknown[0], ", ".join(keys))
        )
    for key in required:
        if key not in data:
            raise ValueError("missing required config key '%s'" % key)
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError("config key '%s' must be a number" % key)
        if not abs(value) <= sys.float_info.max:  # NaN, inf or a huge int
            raise ValueError("config key '%s' must be finite" % key)
    return {key: float(value) for key, value in data.items()}


_ARGS = inspect.signature(SystemParams.from_frequencies).parameters
# Hz-level keys accepted by params_from_mapping: from_frequencies' keywords.
CONFIG_KEYS = tuple(_ARGS)
REQUIRED_KEYS = tuple(k for k, arg in _ARGS.items() if arg.default is arg.empty)


def params_from_mapping(data: Mapping) -> SystemParams:
    """Build :class:`SystemParams` from a flat Hz-keyed mapping.

    Accepted keys are listed in :data:`CONFIG_KEYS`; anything else is an
    error naming the offending key.
    """
    return SystemParams.from_frequencies(
        **read_config(data, CONFIG_KEYS, REQUIRED_KEYS)
    )
