"""Parameter container, unit conversion, and derived scalars."""

import dataclasses
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.constants import HBAR, K_B, TWO_PI
from qndsim.rates import cooperativities, feasibility, max_monitorable_state
from qndsim.system import (
    ANGULAR_RATES,
    CONFIG_KEYS,
    REQUIRED_KEYS,
    SystemParams,
    params_from_mapping,
    read_config,
    thermal_occupancy,
)

from conftest import REF_KW, make_ref


def temperature_for_occupancy(omega_m, nbar_th):
    """Inverse of thermal_occupancy: the bath temperature in K."""
    return HBAR * omega_m / (K_B * math.log1p(1.0 / nbar_th))


class TestThermalOccupancy:
    def test_two_ghz_at_sixty_millikelvin(self):
        # CODATA route computed externally: 1/expm1(hbar*w/(kB*0.060))
        n = thermal_occupancy(TWO_PI * 2e9, 0.060)
        assert n == pytest.approx(0.2530503391370289, rel=1e-12)
        # the value the docs round to
        assert abs(n - 0.25) / 0.25 < 0.02

    def test_occupancy_one_at_log_two_temperature(self):
        # hbar*w/kB*T = ln 2 makes expm1 exactly 1
        w = TWO_PI * 2e9
        t = HBAR * w / (K_B * math.log(2.0))
        assert thermal_occupancy(w, t) == pytest.approx(1.0, rel=1e-12)
        assert t == pytest.approx(0.13847688363932312, rel=1e-12)

    def test_round_trip(self):
        w = TWO_PI * 2e9
        for nbar in (1e-6, 0.25, 1.0, 17.5, 4000.0):
            t = temperature_for_occupancy(w, nbar)
            assert thermal_occupancy(w, t) == pytest.approx(nbar, rel=1e-12)

    def test_deep_quantum_regime_underflows_to_zero(self):
        assert thermal_occupancy(TWO_PI * 2e9, 1e-6) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            thermal_occupancy(TWO_PI * 2e9, 0.0)
        with pytest.raises(ValueError):
            thermal_occupancy(TWO_PI * 2e9, -1.0)
        with pytest.raises(ValueError):
            thermal_occupancy(-1.0, 0.1)


class TestFromFrequencies:
    def test_radian_conversion(self, ref_params):
        assert ref_params.omega_m == pytest.approx(TWO_PI * 2e9, rel=1e-15)
        assert ref_params.kappa == pytest.approx(TWO_PI * 5e8, rel=1e-15)
        assert ref_params.g1 == pytest.approx(TWO_PI * 5e4, rel=1e-15)
        assert ref_params.delta == 0.0

    def test_kappa_e_defaults_to_half(self, ref_params):
        assert ref_params.kappa_e == pytest.approx(ref_params.kappa / 2)
        p = make_ref(kappa_e_hz=1e8)
        assert p.kappa_e == pytest.approx(TWO_PI * 1e8, rel=1e-15)

    def test_temperature_route_matches_occupancy_route(self):
        t = temperature_for_occupancy(TWO_PI * 2e9, 0.25)
        kw = dict(REF_KW)
        del kw["nbar_th"]
        p = SystemParams.from_frequencies(temperature_k=t, **kw)
        assert p.nbar_th == pytest.approx(0.25, rel=1e-12)

    def test_exactly_one_bath_spec(self):
        kw = dict(REF_KW)
        del kw["nbar_th"]
        with pytest.raises(ValueError, match="temperature_k or nbar_th"):
            SystemParams.from_frequencies(**kw)
        with pytest.raises(ValueError, match="temperature_k or nbar_th"):
            SystemParams.from_frequencies(nbar_th=0.25, temperature_k=0.06, **kw)

    def test_power_to_photon_number(self):
        # resonant critically coupled drive: nbar = 2 P / (hbar w_d kappa),
        # so 20.13 nW of 193.4 THz light sustains 100 photons
        kw = dict(REF_KW)
        del kw["nbar_photon"]
        p = SystemParams.from_frequencies(
            power_w=2.012947166633207e-08, omega_d_hz=193.4e12, **kw
        )
        assert p.nbar_photon == pytest.approx(100.0, rel=1e-12)

    def test_detuned_drive_is_lorentzian_suppressed(self):
        kw = dict(REF_KW)
        del kw["nbar_photon"]
        kw["delta_hz"] = 250e6  # half a linewidth
        p = SystemParams.from_frequencies(
            power_w=2.012947166633207e-08, omega_d_hz=193.4e12, **kw
        )
        assert p.nbar_photon == pytest.approx(50.0, rel=1e-12)

    def test_exactly_one_drive_spec(self):
        kw = dict(REF_KW)
        del kw["nbar_photon"]
        with pytest.raises(ValueError, match="nbar_photon or power_w"):
            SystemParams.from_frequencies(**kw)
        with pytest.raises(ValueError, match="nbar_photon or power_w"):
            SystemParams.from_frequencies(
                nbar_photon=100.0, power_w=1e-9, omega_d_hz=193.4e12, **kw
            )
        # power needs the drive frequency to convert to photon flux
        with pytest.raises(ValueError, match="omega_d_hz"):
            SystemParams.from_frequencies(power_w=1e-9, **kw)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            make_ref(omega_m_hz=0.0)
        with pytest.raises(ValueError):
            make_ref(kappa_hz=-1.0)
        with pytest.raises(ValueError):
            make_ref(gamma_m_hz=-1e3)
        with pytest.raises(ValueError):
            make_ref(nbar_th=-0.1)
        with pytest.raises(ValueError):
            make_ref(nbar_photon=-1.0)


class TestDerivedScalars:
    def test_cooperativities_exact(self, ref_params):
        c = cooperativities(ref_params)
        # 4*100*(5e4)^2/(5e8*1e3) and its g2 counterpart are exact dyadics
        assert c.c1 == 2.0
        assert c.c2 == 8.0
        assert c.q2 == 32.0

    def test_cooperativities_scale_with_photon_number(self):
        c = cooperativities(make_ref(nbar_photon=1.0))
        assert c.c1 == pytest.approx(0.02, rel=1e-12)
        assert c.c2 == pytest.approx(0.08, rel=1e-12)

    def test_quantum_cooperativity_needs_thermal_phonons(self):
        c = cooperativities(make_ref(nbar_th=0.0))
        assert math.isinf(c.q2)

    def test_replaced_copy_keeps_exact_ratios(self, ref_params):
        # a copy with a changed Hz field is the parameter set built with it
        q = dataclasses.replace(ref_params, g2_hz=2.0 * ref_params.g2_hz)
        built = make_ref(g2_hz=2e5)
        assert q == built and hash(q) == hash(built)
        assert q.g2 == TWO_PI * 2e5
        c = cooperativities(q)
        assert (c.c1, c.c2, c.q2) == (2.0, 32.0, 128.0)
        # at n = 0 the thermal rate is Gamma_th0 = gamma_m * nbar_th
        assert feasibility(q, 0).ratios["meas_over_thermal"] == 128.0
        assert feasibility(q, 3).ratios["quantum_coop2"] == 128.0


# Axes with no derived default: changing one in a copy changes nothing
# else. kappa_hz qualifies once kappa_e_hz is given, here at the bottom of
# the drawn range so that every drawn kappa stays above it.
COPY_AXES = (
    "g1_hz", "g2_hz", "gamma_m_hz", "omega_m_hz", "delta_hz",
    "nbar_th", "nbar_photon", "kappa_hz",
)


@given(
    axis=st.sampled_from(COPY_AXES),
    value=st.floats(min_value=1e-3, max_value=1e12),
    n=st.integers(0, 20),
)
@settings(max_examples=150, deadline=None)
def test_equal_parameters_give_equal_verdicts(axis, value, n):
    base = make_ref(kappa_e_hz=1e-3)
    copy = dataclasses.replace(base, **{axis: value})
    built = make_ref(kappa_e_hz=1e-3, **{axis: value})
    assert copy == built

    def verdicts(p):
        return repr((
            feasibility(p, n).ratios, cooperativities(p), max_monitorable_state(p)
        ))

    assert verdicts(copy) == verdicts(built)


class TestMappingLoader:
    def test_round_trip(self):
        p = params_from_mapping(dict(REF_KW))
        q = make_ref()
        assert p.omega_m == q.omega_m
        assert p.nbar_photon == q.nbar_photon

    def test_unknown_key_is_named(self):
        bad = dict(REF_KW, typo_key=1.0)
        with pytest.raises(ValueError, match="typo_key"):
            params_from_mapping(bad)

    def test_missing_required_key(self):
        bad = dict(REF_KW)
        del bad["kappa_hz"]
        with pytest.raises(ValueError, match="kappa_hz"):
            params_from_mapping(bad)

    def test_bool_is_not_a_number(self):
        bad = dict(REF_KW, delta_hz=True)
        with pytest.raises(ValueError, match="delta_hz"):
            params_from_mapping(bad)

    def test_non_numeric_rejected(self):
        bad = dict(REF_KW, g1_hz="fifty kilohertz")
        with pytest.raises(ValueError, match="g1_hz"):
            params_from_mapping(bad)

    def test_config_keys_frozen(self):
        assert CONFIG_KEYS == (
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
        )


class TestFiniteInputs:
    """NaN and inf fail every ``<=`` check, so they are rejected by name."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_config_value_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="'nbar_th' must be finite"):
            params_from_mapping(dict(REF_KW, nbar_th=bad))

    def test_reader_returns_floats(self):
        got = read_config({"a": 1, "b": 2.5}, ("a", "b", "c"), ("a",))
        assert got == {"a": 1.0, "b": 2.5}
        assert all(type(v) is float for v in got.values())
        with pytest.raises(ValueError, match="JSON object"):
            read_config([1.0], ("a",))

    def test_config_keys_are_the_constructor_keywords(self):
        args = inspect.signature(SystemParams.from_frequencies).parameters
        assert CONFIG_KEYS == tuple(args)
        assert REQUIRED_KEYS == (
            "omega_m_hz", "gamma_m_hz", "kappa_hz", "delta_hz", "g1_hz", "g2_hz"
        )

    @pytest.mark.parametrize("name", ANGULAR_RATES)
    def test_angular_rate_must_be_finite(self, name):
        # finite in Hz, infinite once multiplied by 2*pi
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            make_ref(**{name + "_hz": 1e308})

    def test_fields_must_be_finite(self, ref_params):
        with pytest.raises(ValueError, match="nbar_th must be finite"):
            dataclasses.replace(ref_params, nbar_th=math.nan)
        # a derived value can overflow: 1e300 W at a 1e-10 Hz drive
        kw = dict(REF_KW, power_w=1e300, omega_d_hz=1e-10)
        del kw["nbar_photon"]
        with pytest.raises(ValueError, match="nbar_photon must be finite"):
            params_from_mapping(kw)
