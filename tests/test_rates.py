"""Transition rates, measurement rate, and the feasibility hierarchy."""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.constants import TWO_PI
from qndsim.lindblad import bipartite_generator, reduced_generator
from qndsim.rates import (
    CHECK_NAMES,
    _exact,
    _weights,
    channel_coefficients,
    channel_rates,
    cooperativities,
    feasibility,
    ground_state_rates,
    max_monitorable_state,
    measurement_rate,
    number_dephasing_weight,
    rate_table,
    transition_rates,
)
from qndsim.trajectories import default_n_cap

from conftest import make_ref

GOLDEN_RATES = Path(__file__).with_name("golden_rate_layer.json")


def decimals(lo, hi, zero=False):
    """Decimal inputs m x 10^e, and exactly 0 when ``zero`` is set."""
    values = st.builds(
        lambda m, e: float("%de%d" % (m, e)),
        st.integers(1, 999),
        st.integers(lo, hi),
    )
    return st.one_of(st.just(0.0), values) if zero else values


# Decimal configs over the ranges of the paper-formula test below.
DECIMAL_CONFIGS = st.fixed_dictionaries(
    dict(
        omega_m_hz=decimals(3, 9),
        gamma_m_hz=decimals(-2, 4),
        kappa_hz=decimals(3, 9),
        delta_hz=st.one_of(decimals(3, 9, zero=True), decimals(3, 9).map(lambda v: -v)),
        g1_hz=decimals(0, 6, zero=True),
        g2_hz=decimals(0, 6, zero=True),
        nbar_th=decimals(-4, 1, zero=True),
        nbar_photon=decimals(-2, 4, zero=True),
    )
)


def paper_ratios(kw, n):
    """The feasibility ratios at state n, from the paper's formulas in Hz.

    Written out independently of qndsim in exact Fractions; a zero
    denominator makes a ratio infinite (a vacuous check).
    """
    wm, gm, kap = (Fraction(kw[k]) for k in ("omega_m_hz", "gamma_m_hz", "kappa_hz"))
    dlt, g1, g2 = (Fraction(kw[k]) for k in ("delta_hz", "g1_hz", "g2_hz"))
    nth, nph = Fraction(kw["nbar_th"]), Fraction(kw["nbar_photon"])

    def div(num, den):
        return math.inf if den == 0 else float(num / den)

    def s_nn(w):
        return nph * kap / ((w - dlt) ** 2 + kap * kap / 4)

    gamma_th = gm * ((2 * nth + 1) * n + nth)
    c1 = 4 * nph * g1 ** 2 / (kap * gm)
    c2 = 4 * nph * g2 ** 2 / (kap * gm)
    return {
        "meas_over_thermal": div(4 * nph * g2 ** 2 / kap, gamma_th),
        "thermal_over_up1": div(gamma_th, (n + 1) * g1 ** 2 * s_nn(-wm)),
        "thermal_over_down1": div(gamma_th, n * g1 ** 2 * s_nn(wm)),
        "thermal_over_up2": div(
            gamma_th, (n + 1) * (n + 2) * g2 ** 2 * s_nn(-2 * wm) / 4
        ),
        "thermal_over_down2": div(gamma_th, n * (n - 1) * g2 ** 2 * s_nn(2 * wm) / 4),
        # Q2 = C2 / nbar_th, and 0 without coupling even in a zero-temperature bath
        "quantum_coop2": 0.0 if c2 == 0 else div(c2, nth),
        # 4 wm^2 / (Q1 kappa^2) and 32 wm^2 / (Q2 kappa^2)
        "ground_linear": div(4 * wm ** 2 * nth, c1 * kap ** 2),
        "ground_quadratic": div(32 * wm ** 2 * nth, c2 * kap ** 2),
        "linear_limit": div(2 * g2 * wm, g1 * kap),
        "sideband_resolution": div(32 * wm ** 2, kap ** 2),
        "n_max": float((c2 - nth) / (2 * nth + 1)),
    }


class TestGroundStateRates:
    def test_reference_values(self, ref_params):
        gs = ground_state_rates(ref_params)
        assert gs.gamma_th0 / TWO_PI == pytest.approx(250.0, rel=1e-14)
        # exact rationals of the Lorentzian forms: 400/13 and 4000/257 Hz
        assert gs.gamma_1 / TWO_PI == pytest.approx(400.0 / 13.0, rel=1e-12)
        assert gs.gamma_2 / TWO_PI == pytest.approx(4000.0 / 257.0, rel=1e-12)
        # sideband-resolved closed forms are slightly above the exact ones
        assert gs.gamma_1_closed / TWO_PI == pytest.approx(31.25, rel=1e-12)
        assert gs.gamma_2_closed / TWO_PI == pytest.approx(15.625, rel=1e-12)
        assert not gs.detuned

    def test_closed_forms_converge_deep_in_sideband_resolution(self):
        # kappa/omega_m -> 0: Lorentzian tails approach the closed forms
        p = make_ref(kappa_hz=5e5)
        gs = ground_state_rates(p)
        assert gs.gamma_1 == pytest.approx(gs.gamma_1_closed, rel=1e-7)
        assert gs.gamma_2 == pytest.approx(gs.gamma_2_closed, rel=1e-7)

    def test_detuned_flag(self):
        assert ground_state_rates(make_ref(delta_hz=1e6)).detuned


class TestTransitionRates:
    def test_negative_n_rejected(self, ref_params):
        with pytest.raises(ValueError):
            transition_rates(ref_params, -1)

    def test_bosonic_enhancement_factors(self, ref_params):
        r0 = transition_rates(ref_params, 0)
        r3 = transition_rates(ref_params, 3)
        assert r3.gamma_up1 == pytest.approx(4 * r0.gamma_up1, rel=1e-12)
        assert r3.gamma_up2 == pytest.approx(10 * r0.gamma_up2, rel=1e-12)
        # down rates vanish on the ground state and carry n, n(n-1)
        assert r0.gamma_down1 == 0.0
        assert r0.gamma_down2 == 0.0
        assert transition_rates(ref_params, 1).gamma_down2 == 0.0

    def test_up_down_symmetry_on_resonance(self, ref_params):
        # delta = 0 makes S_NN even, so down1(1) = up1(0) etc.
        r0 = transition_rates(ref_params, 0)
        r1 = transition_rates(ref_params, 1)
        r2 = transition_rates(ref_params, 2)
        assert r1.gamma_down1 == pytest.approx(r0.gamma_up1, rel=1e-12)
        assert r2.gamma_down2 == pytest.approx(r0.gamma_up2, rel=1e-12)

    def test_thermal_rate(self, ref_params):
        r = transition_rates(ref_params, 4)
        expect = TWO_PI * 1e3 * (1.25 * 4 + 0.25 * 5)
        assert r.gamma_th == pytest.approx(expect, rel=1e-12)

    def test_total_is_sum_of_channels(self, ref_params):
        r = transition_rates(ref_params, 5)
        total = (
            r.gamma_up1 + r.gamma_down1 + r.gamma_up2 + r.gamma_down2 + r.gamma_th
        )
        assert r.total_decoherence == pytest.approx(total, rel=1e-14)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # acceptance criterion 4: two-phonon sideband point
            dict(
                omega_m_hz=800.0, kappa_hz=400.0, delta_hz=1600.0, g1_hz=280.0,
                g2_hz=150.0, gamma_m_hz=200.0, nbar_th=0.005, nbar_photon=1.0,
            ),
            dict(delta_hz=3e8, nbar_th=3.0),
        ],
    )
    def test_rates_are_the_kernel_expressions(self, overrides):
        # bit for bit the rates the jump-chain kernels draw from
        p = make_ref(**overrides)
        c = channel_coefficients(p).tolist()
        for n in range(default_n_cap(p) + 1):
            fn = float(n)
            r0 = c[0] * (fn + 1.0)
            r1 = c[1] * fn
            r2 = c[2] * (fn + 1.0)
            r3 = c[3] * fn
            r4 = c[4] * (fn + 1.0) * (fn + 2.0)
            r5 = c[5] * fn * (fn - 1.0)
            r = transition_rates(p, n)
            assert r.gamma_th == r0 + r1, n
            assert r.gamma_up1 == r2, n
            assert r.gamma_down1 == r3, n
            assert r.gamma_up2 == r4, n
            assert r.gamma_down2 == r5, n
            assert r.total_decoherence == r0 + r1 + r2 + r3 + r4 + r5, n

    @pytest.mark.parametrize("overrides", [{}, dict(delta_hz=3e8, nbar_th=3.0)])
    def test_exact_coefficients_are_the_float_ones_in_hz(self, overrides):
        p = make_ref(**overrides)
        hz = [TWO_PI * float(c) for c in _weights(*_exact(p))]
        assert hz == pytest.approx(channel_coefficients(p).tolist(), rel=1e-13)

    @given(kw=DECIMAL_CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_exact_coefficients_match_float_ones_on_decimal_configs(self, kw):
        # one statement of the weights, evaluated in both arithmetics; the
        # float route rounds omega and delta apart, and omega - delta can
        # cancel three decimal digits (-2 * 96.4e6 Hz against -193e6 Hz
        # differs by 3.4e-13), hence 1e-11 rather than a few ulps
        p = make_ref(**kw)
        hz = [TWO_PI * float(c) for c in _weights(*_exact(p))]
        assert hz == pytest.approx(channel_coefficients(p).tolist(), rel=1e-11)

    @pytest.mark.parametrize(
        "overrides", [{}, dict(delta_hz=1600.0, omega_m_hz=800.0, kappa_hz=400.0)]
    )
    def test_table_rows_are_transition_rates(self, overrides):
        # the kernels' cumulative table, summed left to right, holds the
        # RateSet of each row bit for bit
        p = make_ref(**overrides)
        cap = default_n_cap(p)
        table = channel_rates(p, cap)
        cum = np.cumsum(table, axis=1)
        assert table.shape == (cap, 6) and table.dtype == np.float64
        for n in range(cap):
            r = transition_rates(p, n)
            assert table[n, 2:].tolist() == [
                r.gamma_up1, r.gamma_down1, r.gamma_up2, r.gamma_down2
            ], n
            assert cum[n, 1] == r.gamma_th, n
            assert cum[n, 5] == r.total_decoherence, n

    @given(n=st.integers(0, 50), nbar=st.floats(1.0, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_optical_rates_linear_in_photon_number(self, n, nbar):
        base = transition_rates(make_ref(nbar_photon=1.0), n)
        scaled = transition_rates(make_ref(nbar_photon=nbar), n)
        assert scaled.gamma_up1 == pytest.approx(nbar * base.gamma_up1, rel=1e-10)
        assert scaled.gamma_up2 == pytest.approx(nbar * base.gamma_up2, rel=1e-10)
        assert scaled.gamma_th == base.gamma_th


class TestMeasurementRate:
    def test_reference_value(self, ref_params):
        # float route: pi^2 cancellation costs an ulp, hence approx;
        # the rational route below is exact
        assert measurement_rate(ref_params) / TWO_PI == pytest.approx(
            8000.0, rel=1e-13
        )

    def test_ratio_ladder_exact(self):
        # scaling the photon number walks the ratio through 0.32, 3.2, 32
        values = [
            cooperativities(make_ref(nbar_photon=nb)).q2
            for nb in (1.0, 10.0, 100.0)
        ]
        assert values == [0.32, 3.2, 32.0]

    def test_dephasing_weight_matches_measurement_rate_on_resonance(
        self, ref_params
    ):
        assert number_dephasing_weight(ref_params) == pytest.approx(
            measurement_rate(ref_params), rel=1e-14
        )

    def test_dephasing_weight_suppressed_by_detuning(self):
        p = make_ref(delta_hz=250e6)  # half a linewidth
        assert number_dephasing_weight(p) == pytest.approx(
            measurement_rate(p) / 2.0, rel=1e-12
        )

    def test_zero_thermal_gives_infinite_ratio(self):
        assert math.isinf(cooperativities(make_ref(nbar_th=0.0)).q2)


class TestMaxMonitorableState:
    def test_reference_value(self, ref_params):
        n_max, floor = max_monitorable_state(ref_params)
        assert n_max == pytest.approx(31.0 / 6.0, rel=1e-14)
        assert floor == 5

    def test_unmonitorable_when_cooperativity_too_small(self):
        n_max, floor = max_monitorable_state(make_ref(nbar_photon=0.001))
        assert n_max < 0
        assert floor is None


class TestFeasibility:
    def test_reference_ratios(self, ref_params):
        rep = feasibility(ref_params, 0, dominance=5.0)
        assert rep.ratios["meas_over_thermal"] == 32.0
        assert rep.ratios["thermal_over_up1"] == 8.125
        assert math.isinf(rep.ratios["thermal_over_down1"])
        assert rep.ratios["thermal_over_up2"] == 16.0625
        assert math.isinf(rep.ratios["thermal_over_down2"])
        assert rep.ratios["quantum_coop2"] == 32.0
        assert rep.ratios["ground_linear"] == 8.0
        assert rep.ratios["ground_quadratic"] == 16.0
        assert rep.ratios["linear_limit"] == 16.0
        assert rep.ratios["sideband_resolution"] == 512.0
        assert rep.n_max_floor == 5
        assert rep.ok

    def test_dominance_ten_fails_on_single_phonon_heating(self, ref_params):
        rep = feasibility(ref_params, 0, dominance=10.0)
        assert not rep.checks["thermal_over_up1"]
        assert not rep.ok
        # the ratios themselves do not depend on the dominance choice
        assert rep.ratios["thermal_over_up1"] == 8.125

    def test_check_names_frozen(self, ref_params):
        assert CHECK_NAMES == (
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
        rep = feasibility(ref_params, 0, dominance=5.0)
        assert tuple(rep.ratios) == CHECK_NAMES
        assert tuple(rep.checks) == CHECK_NAMES

    def test_higher_state_erodes_thermal_dominance(self, ref_params):
        # at n = 3 the measurement-over-thermal ratio has fallen below 5
        rep = feasibility(ref_params, 3, dominance=5.0)
        assert rep.ratios["meas_over_thermal"] < 5.0
        assert not rep.ok

    def test_rejects_bad_arguments(self, ref_params):
        with pytest.raises(ValueError):
            feasibility(ref_params, -1)
        with pytest.raises(ValueError):
            feasibility(ref_params, 0, dominance=1.0)

    def test_fock_index_must_be_an_integer(self, ref_params):
        for fn in (transition_rates, feasibility):
            with pytest.raises(ValueError, match="integer"):
                fn(ref_params, 2.5)
            with pytest.raises(ValueError, match="integer"):
                fn(ref_params, 3.0)
        # numpy integers are integers
        rep = feasibility(ref_params, np.int64(3))
        assert type(rep.n) is int and rep == feasibility(ref_params, 3)
        assert transition_rates(ref_params, np.uint8(3)) == transition_rates(
            ref_params, 3
        )

    def test_zero_bath_without_quadratic_coupling(self):
        # no g2 means no measurement: Q2 is 0 as in cooperativities, not inf
        p = make_ref(nbar_th=0.0, g2_hz=0.0)
        rep = feasibility(p, 0, dominance=5.0)
        assert rep.ratios["quantum_coop2"] == cooperativities(p).q2 == 0.0
        assert not rep.checks["quantum_coop2"]
        assert math.isinf(rep.ratios["ground_quadratic"])
        assert not rep.ok

    def test_zero_bath_without_linear_coupling(self):
        # no g1 means no linear contamination: Q1 is 0, the check is vacuous
        p = make_ref(nbar_th=0.0, g1_hz=0.0)
        rep = feasibility(p, 0, dominance=5.0)
        assert cooperativities(p).q1 == 0.0
        assert math.isinf(rep.ratios["ground_linear"])
        assert rep.checks["ground_linear"]
        assert not rep.ok  # Q2 is infinite, so ground_quadratic fails

    @given(
        kw=st.fixed_dictionaries(
            dict(
                omega_m_hz=decimals(3, 9),
                gamma_m_hz=decimals(-2, 4),
                kappa_hz=decimals(3, 9),
                delta_hz=st.one_of(
                    decimals(3, 9, zero=True), decimals(3, 9).map(lambda v: -v)
                ),
                g1_hz=decimals(0, 6, zero=True),
                g2_hz=decimals(0, 6, zero=True),
                nbar_th=decimals(-4, 1, zero=True),
                nbar_photon=decimals(-2, 4, zero=True),
            )
        ),
        n=st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_ratios_are_the_exact_paper_formulas(self, kw, n):
        rep = feasibility(make_ref(**kw), n, dominance=10.0)
        want = paper_ratios(kw, n)
        assert rep.n_max == want.pop("n_max")
        assert rep.ratios == want

    def test_strong_linear_coupling_breaks_the_limit(self):
        rep = feasibility(make_ref(g1_hz=5e6), 0, dominance=5.0)
        assert rep.ratios["linear_limit"] == pytest.approx(0.16, rel=1e-12)
        assert not rep.checks["linear_limit"]
        assert not rep.ok


class TestRateTable:
    def test_header_and_normalization(self, ref_params):
        header, rows = rate_table(ref_params, 6)
        assert header == [
            "n",
            "gamma_up1",
            "gamma_down1",
            "gamma_up2",
            "gamma_down2",
            "gamma_th",
            "gamma_meas",
            "total_decoherence",
        ]
        assert len(rows) == 7
        by = {int(row[0]): dict(zip(header[1:], row[1:])) for row in rows}
        assert by[0]["gamma_th"] == pytest.approx(1.0, rel=1e-14)
        assert by[0]["gamma_meas"] == pytest.approx(32.0, rel=1e-14)
        assert by[6]["gamma_meas"] == pytest.approx(32.0, rel=1e-14)

    def test_thermal_crossing_brackets_n_max(self, ref_params):
        # the measurement rate overtakes thermal decoherence up to n = 5
        # (n_max = 31/6) and loses at n = 6
        header, rows = rate_table(ref_params, 6)
        ith = header.index("gamma_th")
        imeas = header.index("gamma_meas")
        assert rows[5][ith] < rows[5][imeas]
        assert rows[6][ith] > rows[6][imeas]

    @pytest.mark.parametrize("overrides", [{}, dict(delta_hz=3e8, nbar_th=3.0)])
    def test_rows_are_transition_rates_over_th0(self, overrides):
        # the per-row loop the table replaced, bit for bit
        p = make_ref(**overrides)
        th0 = p.nbar_th * p.gamma_m
        header, rows = rate_table(p, 12)
        for n, row in enumerate(rows):
            r = transition_rates(p, n)
            assert row == [float(n)] + [getattr(r, k) / th0 for k in header[1:]]

    def test_rejects_negative_n_top(self, ref_params):
        with pytest.raises(ValueError, match="-3"):
            rate_table(ref_params, -3)

    def test_requires_thermal_normalizer(self):
        with pytest.raises(ValueError):
            rate_table(make_ref(nbar_th=0.0), 3)


def test_nan_dominance_rejected(ref_params):
    with pytest.raises(ValueError, match="dominance"):
        feasibility(ref_params, 0, dominance=math.nan)


def rate_layer_digest(p, dominance):
    """sha256 over every float and verdict the rate layer gives for ``p``.

    The channel coefficients and generator weights enter as ``float.hex``,
    the rest as reprs, so one changed bit anywhere changes the digest.
    """
    parts = [c.hex() for c in channel_coefficients(p).tolist()]
    for fn in (cooperativities, max_monitorable_state, ground_state_rates,
               measurement_rate):
        parts.append(repr(fn(p)))
    for n in (0, 1, 3, 7):
        parts.append(repr(transition_rates(p, n)))
        parts.append(repr(feasibility(p, n, dominance)))
    try:
        parts.append(repr(rate_table(p, 7)))
    except ValueError as err:  # no thermal normalizer
        parts.append("ValueError: %s" % err)
    for gen in (reduced_generator(p, 4), bipartite_generator(p, 2, 2)):
        parts += [w.hex() for _, w in gen.channels]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def golden_rate_grid(seed=2018, count=400):
    """Seeded decimal configs m x 10^e over the ranges of
    :func:`test_ratios_are_the_exact_paper_formulas`; g1, g2, delta,
    nbar_th and nbar_photon are exactly 0 in about one draw in six.
    Returns (keys, rows), each row the config values then a dominance.
    """
    rng = random.Random(seed)

    def dec(lo, hi, zero=False):
        if zero and rng.random() < 1 / 6:
            return 0.0
        return float("%de%d" % (rng.randint(1, 999), rng.randint(lo, hi)))

    keys = ("omega_m_hz", "gamma_m_hz", "kappa_hz", "delta_hz", "g1_hz",
            "g2_hz", "nbar_th", "nbar_photon", "dominance")
    rows = []
    for _ in range(count):
        delta = dec(3, 9, zero=True) * rng.choice((1, -1))
        rows.append([
            dec(3, 9), dec(-2, 4), dec(3, 9), delta, dec(0, 6, zero=True),
            dec(0, 6, zero=True), dec(-4, 1, zero=True), dec(-2, 4, zero=True),
            rng.randint(11, 999) / 10,
        ])
    return keys, rows


def record_golden_rate_layer():
    """Rewrite :data:`GOLDEN_RATES` from the current code."""
    keys, rows = golden_rate_grid()
    lines = [
        json.dumps(row + [rate_layer_digest(make_ref(**dict(zip(keys, row[:-1]))),
                                            row[-1])])
        for row in rows
    ]
    GOLDEN_RATES.write_text(
        '{"keys": %s,\n "runs": [\n  %s\n ]}\n'
        % (json.dumps(keys), ",\n  ".join(lines))
    )


def test_rate_layer_matches_golden():
    # recorded before the float and exact statements of each rate were
    # merged into one function per formula
    gold = json.loads(GOLDEN_RATES.read_text())
    keys = gold["keys"]
    assert len(gold["runs"]) == 400
    wrong = []
    for i, run in enumerate(gold["runs"]):
        *values, dominance, digest = run
        p = make_ref(**dict(zip(keys, values)))
        if rate_layer_digest(p, dominance) != digest:
            wrong.append(i)
    assert wrong == []


if __name__ == "__main__":
    record_golden_rate_layer()
