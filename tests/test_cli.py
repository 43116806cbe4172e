"""End-to-end runs of the command-line surface, in process."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import _kernels, cli
from qndsim.cli import TWOMODE_KEYS, main
from qndsim.constants import TWO_PI
from qndsim.coupling import ModeField, PermittivityPerturbation, write_field_csv
from qndsim.system import CONFIG_KEYS

from conftest import REF_KW


@pytest.fixture
def ref_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(REF_KW))
    return str(path)


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return header, rows


def column(header, rows, name, cast=float):
    idx = header.index(name)
    return [cast(r[idx]) for r in rows]


class TestRates:
    def test_csv_anchors(self, ref_config, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--config", ref_config, "--out", str(out)]) == 0
        header, rows = read_table(out)
        assert header[0] == "n"
        assert len(rows) == 11  # n = 0..10 by default
        th = column(header, rows, "gamma_th")
        meas = column(header, rows, "gamma_meas")
        assert th[0] == 1.0  # normalization anchor
        assert all(m == 32.0 for m in meas)  # n-independent readout rate
        # thermal crossing of the measurement rate sits between n=5 and 6
        assert th[5] < 32.0 < th[6]

    def test_json_to_stdout(self, ref_config, capsys):
        assert main(["rates", "--config", ref_config, "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["normalization"] == "gamma_th0"
        assert body["columns"][0] == "n"
        assert body["_manifest"]["sha256_16"]

    def test_negative_n_top_exits_one(self, ref_config, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = main(
            ["rates", "--config", ref_config, "--n-top", "-3", "--out", str(out)]
        )
        assert code == 1
        assert "-3" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["rates", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFeasibility:
    def test_pass_at_reference(self, ref_config, tmp_path):
        out = tmp_path / "feas.json"
        code = main(
            ["feasibility", "--config", ref_config, "--dominance", "5",
             "--out", str(out)]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert body["ok"] is True
        assert body["ratios"]["meas_over_thermal"] == 32.0
        assert body["sideband_margin"] == 512.0

    def test_fail_exits_two(self, tmp_path, capsys):
        cfg = dict(REF_KW, g1_hz=5e6)  # linear limit margin collapses
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["feasibility", "--config", str(path), "--dominance", "5"])
        assert code == 2
        body = json.loads(capsys.readouterr().out)
        assert body["ok"] is False
        assert body["checks"]["linear_limit"] is False

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"omega_m_hz": 2e9, "bogus_key": 1.0}))
        assert main(["feasibility", "--config", str(path)]) == 1
        assert "bogus_key" in capsys.readouterr().err


class TestEvolve:
    def test_csv_smoke(self, ref_config, tmp_path):
        out = tmp_path / "evolve.csv"
        code = main(
            ["evolve", "--config", ref_config, "--initial", "fock:1",
             "--t-final", "2e-4", "--grid", "9", "--dim", "10",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = read_table(out)
        assert header[0] == "time_s"
        assert header[1] == "p0"
        assert len(rows) == 9
        # populations stay normalized along the run
        pops = [sum(float(v) for v in r[1:11]) for r in rows]
        assert all(abs(p - 1.0) < 1e-6 for p in pops)

    def test_json_diagnostics(self, ref_config, tmp_path):
        out = tmp_path / "evolve.json"
        code = main(
            ["evolve", "--config", ref_config, "--initial", "thermal:0.25",
             "--t-final", "1e-4", "--grid", "5", "--dim", "12",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert set(body) >= {"times_s", "populations", "diagnostics"}
        assert len(body["times_s"]) == 5

    def test_bad_initial_spec(self, ref_config, capsys):
        code = main(
            ["evolve", "--config", ref_config, "--initial", "coherent:2",
             "--t-final", "1e-4"]
        )
        assert code == 1
        assert "initial state" in capsys.readouterr().err

    def test_non_finite_t_final_exits_one(self, ref_config, capsys):
        code = main(
            ["evolve", "--config", ref_config, "--initial", "fock:0",
             "--t-final", "nan"]
        )
        assert code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("initial, message", [
        # suggest_dim gives 2,072,326,586; the pick adds 4
        ("thermal:1e8", "dimension 2072326590"),
        # nbar / (nbar + 1) rounds to 1
        ("thermal:1e17", "too large"),
        ("fock:1020", "dimension 1025"),
    ])
    def test_oversized_initial_state_exits_one(
        self, initial, message, ref_config, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("state built with %r" % (args,))

        monkeypatch.setattr(cli, "thermal_state", refuse)
        monkeypatch.setattr(cli, "fock_state", refuse)
        out = tmp_path / "out.csv"
        code = main(
            ["evolve", "--config", ref_config, "--initial", initial,
             "--t-final", "1e-4", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert not out.exists()


class TestTraject:
    def test_file_set_and_summary(self, ref_config, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code = main(
            ["traject", "--config", ref_config, "--count", "2",
             "--t-final", "0.02", "--seed", "3", "--out", prefix]
        )
        assert code == 0
        assert (tmp_path / "run_stats.json").exists()
        for i in range(2):
            assert (tmp_path / ("run_%03d_events.csv" % i)).exists()
            assert (tmp_path / ("run_%03d_staircase.csv" % i)).exists()
        assert "wrote 5 files" in capsys.readouterr().out
        stats = json.loads((tmp_path / "run_stats.json").read_text())
        assert stats["n_trajectories"] == 2
        assert stats["meta"]["sampler"] == "gillespie"

    def test_reruns_are_byte_identical(self, ref_config, tmp_path):
        for prefix in ("a", "b"):
            code = main(
                ["traject", "--config", ref_config, "--count", "1",
                 "--t-final", "0.01", "--seed", "5",
                 "--out", str(tmp_path / prefix)]
            )
            assert code == 0
        for suffix in ("_stats.json", "_000_events.csv", "_000_staircase.csv"):
            a = (tmp_path / ("a" + suffix)).read_bytes()
            b = (tmp_path / ("b" + suffix)).read_bytes()
            assert a == b, suffix

    def test_default_horizon_needs_thermal_rate(self, tmp_path, capsys):
        cfg = dict(REF_KW, nbar_th=0.0)
        path = tmp_path / "cold.json"
        path.write_text(json.dumps(cfg))
        code = main(
            ["traject", "--config", str(path), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "t-final" in capsys.readouterr().err

    def test_non_finite_t_final_exits_one(self, ref_config, tmp_path, capsys):
        for bad in ("nan", "inf"):
            code = main(
                ["traject", "--config", ref_config, "--count", "1",
                 "--t-final", bad, "--out", str(tmp_path / "x")]
            )
            assert code == 1
            assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_bad_window_exits_one(self, ref_config, tmp_path, capsys):
        # inf used to write a nan staircase, 0 fell back to the default
        for bad in ("inf", "nan", "0"):
            code = main(
                ["traject", "--config", ref_config, "--count", "1",
                 "--t-final", "0.01", "--window", bad,
                 "--out", str(tmp_path / "x")]
            )
            assert code == 1
            assert "window must be positive and finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_no_empty_last_staircase_bin(self, ref_config, tmp_path):
        # 0.05 / window rounds up to 253.00000000000003; the 254th bin would
        # start at t_final, have width 0 and a mean of 0/0
        code = main(
            ["traject", "--config", ref_config, "--count", "1",
             "--t-final", "0.05", "--window", "0.0001976284584980237",
             "--out", str(tmp_path / "x")]
        )
        assert code == 0
        header, rows = read_table(tmp_path / "x_000_staircase.csv")
        assert header == ["time_s", "mean_n"]
        assert len(rows) == 253
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_truncation_exits_one(self, ref_config, tmp_path, capsys):
        code = main(
            ["traject", "--config", ref_config, "--n-cap", "2",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncation reached: state hit n_cap = 2")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("x*"))

    def test_absent_compiled_backend_exits_one(
        self, ref_config, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(_kernels, "_compiled", None)
        code = main(
            ["traject", "--config", ref_config, "--t-final", "0.01",
             "--backend", "c", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: compiled kernel is not available")
        assert not list(tmp_path.glob("x*"))


class TestSweep:
    def test_drive_ladder(self, ref_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", ref_config, "--axis", "nbar_photon",
             "--grid", "list:1,10,100", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_table(out)
        ratio = column(header, rows, "gamma_meas_over_gamma_th0")
        assert ratio == [0.32, 3.2, 32.0]
        ok = column(header, rows, "ok", cast=str)
        assert ok == ["false", "false", "false"]  # default dominance is 10

    def test_g1_scaling_exponent(self, ref_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", ref_config, "--axis", "g1_hz",
             "--grid", "log:1e4:1e6:5", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_table(out)
        g1 = np.array(column(header, rows, "g1_hz"))
        gamma1 = np.array(column(header, rows, "gamma_1_hz"))
        slope = np.polyfit(np.log(g1), np.log(gamma1), 1)[0]
        assert abs(slope - 2.0) < 0.01

    def test_empty_grid_emits_header_only(self, ref_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", ref_config, "--axis", "nbar_photon",
             "--grid", "list:", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # manifest + header
        assert lines[1].startswith("nbar_photon,")

    def test_unknown_axis(self, ref_config, capsys):
        code = main(
            ["sweep", "--config", ref_config, "--axis", "coupling_strength",
             "--grid", "list:1"]
        )
        assert code == 1
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_mass_is_not_an_input(self, ref_config, tmp_path, capsys):
        # no formula reads a motional mass, so neither route accepts one
        code = main(
            ["sweep", "--config", ref_config, "--axis", "mass_kg",
             "--grid", "list:1,2"]
        )
        assert code == 1
        assert "unknown sweep axis 'mass_kg'" in capsys.readouterr().err
        path = tmp_path / "mass.json"
        path.write_text(json.dumps(dict(REF_KW, mass_kg=1e-15)))
        assert main(["rates", "--config", str(path)]) == 1
        assert "unknown config key 'mass_kg'" in capsys.readouterr().err

    def test_bad_grid_spec(self, ref_config, capsys):
        code = main(
            ["sweep", "--config", ref_config, "--axis", "nbar_photon",
             "--grid", "every:1:2"]
        )
        assert code == 1
        assert "grid" in capsys.readouterr().err


class TestTwomode:
    def write_config(self, tmp_path):
        path = tmp_path / "twomode.json"
        path.write_text(json.dumps(TWOMODE_KW))
        return str(path)

    def test_json_report(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "tm.json"
        code = main(
            ["twomode", "--config", cfg, "--format", "json",
             "--x-zpf", "1e-15", "--out", str(out)]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert body["splitting_hz"] == pytest.approx(20e9, rel=1e-12)
        # G2' in Hz per m^2 collapses to G1_hz^2 / (2 nu_hz)
        assert body["G2_prime_hz_per_m2"] == pytest.approx(
            (2e9) ** 2 / (2 * 10e9), rel=1e-12
        )
        assert body["g2_hz"] == pytest.approx(
            (2e9 * 1e-15) ** 2 / (2 * 10e9), rel=1e-12
        )
        assert body["nbar_2"] == pytest.approx(
            (10e9 / 0.5e6) ** 2 * 100.0, rel=1e-12
        )
        assert body["mapping"]["regime"] == "strong"
        assert body["mapping"]["measurement_factor"] == 0.5

    def test_csv_branch_sweep(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "branches.csv"
        code = main(
            ["twomode", "--config", cfg, "--format", "csv",
             "--x-grid", "list:0,0.001", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_table(out)
        assert header == ["x_m", "omega_plus_hz", "omega_minus_hz"]
        wp0 = float(rows[0][1])
        wm0 = float(rows[0][2])
        assert wp0 - wm0 == pytest.approx(20e9, rel=1e-9)

    def test_csv_requires_grid(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = main(["twomode", "--config", cfg, "--format", "csv"])
        assert code == 1
        assert "x-grid" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"omega_0_hz": 1e14, "nu_hz": 1e9, "Q": 5}))
        assert main(["twomode", "--config", str(path)]) == 1
        assert "unknown config key 'Q'" in capsys.readouterr().err

    def test_mode_frequency_pair_refused(self, tmp_path, capsys):
        # the reports assume degenerate modes, given as one omega_0_hz
        path = tmp_path / "pair.json"
        path.write_text(
            json.dumps({"omega_1_hz": 2e14, "omega_2_hz": 2e14, "nu_hz": 1e9})
        )
        assert main(["twomode", "--config", str(path)]) == 1
        assert "unknown config key 'omega_1_hz'" in capsys.readouterr().err
        path.write_text(json.dumps({"nu_hz": 1e9}))
        assert main(["twomode", "--config", str(path)]) == 1
        assert "missing required config key 'omega_0_hz'" in capsys.readouterr().err


class TestCoupling:
    def write_fields(self, tmp_path):
        g = np.linspace(0.0, 1.0, 201)
        eps = np.full(g.shape, 2.25)
        c = 0.02
        target = ModeField(
            grid=g, field=np.sin(math.pi * g), frequency=TWO_PI * 193.4e12,
            label="fundamental",
        )
        partner = ModeField(
            grid=g, field=np.sin(2.0 * math.pi * g), frequency=TWO_PI * 386.0e12,
            label="second",
        )
        pert = PermittivityPerturbation(epsilon=eps, depsilon_dx=c * eps)
        t_path = tmp_path / "target.csv"
        p_path = tmp_path / "partner.csv"
        write_field_csv(target, pert, str(t_path))
        write_field_csv(partner, pert, str(p_path))
        return str(t_path), str(p_path)

    def test_report_round_trip(self, tmp_path):
        t_path, p_path = self.write_fields(tmp_path)
        out = tmp_path / "coupling.json"
        code = main(
            ["coupling", "--field", t_path, "--others", p_path,
             "--x-zpf", "1e-15", "--out", str(out)]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert body["label"] == "fundamental"
        # uniform relative perturbation de/dx = c eps: G1 = -omega c / 2
        assert body["G1_hz_per_m"] == pytest.approx(
            -0.5 * 0.02 * 193.4e12, rel=1e-9
        )
        assert body["G2_self_hz_per_m2"] == pytest.approx(
            3.0 * body["G1_hz_per_m"] ** 2 / 193.4e12, rel=1e-9
        )
        assert "second" in body["G2_cross_hz_per_m2"]
        assert body["classification"] == "linear-dominant"
        assert body["g1_hz"] == pytest.approx(
            body["G1_hz_per_m"] * 1e-15, rel=1e-12
        )

    def test_self_only_when_no_partners(self, tmp_path, capsys):
        t_path, _ = self.write_fields(tmp_path)
        assert main(["coupling", "--field", t_path]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["G2_cross_hz_per_m2"] == {}
        assert body["G2_hz_per_m2"] == pytest.approx(
            body["G2_self_hz_per_m2"], rel=1e-12
        )

    def test_missing_field_file(self, tmp_path, capsys):
        code = main(["coupling", "--field", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, ref_config, capsys):
        assert main(["rates", "--config", ref_config, "--frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err


BAD = ("nan", "inf", "-inf", "-1", "0", "")
BAD_JSON = (math.nan, math.inf, -math.inf, -1, 0, "")
# the reference point, driven by photon number or by power
SINGLE_MODE = (REF_KW, {
    **{k: v for k, v in REF_KW.items() if k != "nbar_photon"},
    "power_w": 2.012947166633207e-08,
    "omega_d_hz": 193.4e12,
})
TWOMODE_KW = {
    "omega_0_hz": 200e12,
    "nu_hz": 10e9,
    "G1_a1_hz_per_m": 2e9,
    "G1_a2_hz_per_m": -2e9,
    "kappa_hz": 1e6,
    "nbar_1": 100.0,
}


def value(good):
    """A flag value: the working one or one of the bad ones, even odds."""
    return st.one_of(st.just(good), st.sampled_from(BAD))


def option(flag, good):
    """A flag left out, or given a working or a bad value."""
    return st.one_of(st.just([]), value(good).map(lambda v: [flag, v]))


def spec(forms, good):
    """A spec string such as a grid, with a working or bad number in it."""
    return st.tuples(st.sampled_from(forms), value(good)).map(lambda t: t[0] % t[1])


def flags(*parts):
    return st.tuples(*parts).map(lambda ps: sum(ps, []))


# subcommand -> (base configs, config keys, flag strategy); sizes stay
# small because a valid draw runs for real
FUZZ = {
    "rates": (SINGLE_MODE, CONFIG_KEYS, flags(
        option("--n-top", "3"), st.just(["--out", "out.csv"]))),
    "feasibility": (SINGLE_MODE, CONFIG_KEYS, flags(
        option("--n", "1"), option("--dominance", "5"),
        st.just(["--out", "out.json"]))),
    "evolve": (SINGLE_MODE, CONFIG_KEYS, flags(
        spec(("fock:%s", "thermal:%s", "diag:0.5,%s"), "1").map(
            lambda s: ["--initial", s]),
        value("1e-4").map(lambda v: ["--t-final", v]),
        option("--grid", "5"), option("--dim", "8"),
        st.just(["--out", "out.csv"]))),
    "traject": (SINGLE_MODE, CONFIG_KEYS, flags(
        option("--t-final", "0.01"), option("--count", "2"),
        option("--n0", "1"), option("--n-cap", "40"),
        option("--window", "0.001"), st.just(["--out", "run"]))),
    "sweep": (SINGLE_MODE, CONFIG_KEYS, flags(
        st.sampled_from(CONFIG_KEYS).map(lambda k: ["--axis", k]),
        spec(("list:%s", "list:1e4,%s", "linear:%s:1e5:3", "log:1e4:%s:3",
              "log:1e4:1e5:%s"), "2e4").map(lambda s: ["--grid", s]),
        option("--n", "0"), option("--dominance", "5"),
        st.just(["--out", "out.csv"]))),
    "twomode": ((TWOMODE_KW,), TWOMODE_KEYS, flags(
        st.sampled_from((["--format", "json"], ["--format", "csv"])),
        st.one_of(st.just([]), spec(("list:%s", "list:0,%s", "linear:0:%s:3"),
                                    "1e-3").map(lambda s: ["--x-grid", s])),
        option("--x-zpf", "1e-15"), st.just(["--out", "out.txt"]))),
    "coupling": ((), (), flags(
        st.just(["--field", "target.csv"]),
        st.sampled_from(([], ["--others", "partner.csv"])),
        option("--x-zpf", "1e-15"), st.just(["--out", "out.json"]))),
}


class TestInputBoundary:
    """Bad numbers in a config or a flag end in one error line and no file."""

    @pytest.mark.parametrize("command", sorted(FUZZ))
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_bad_numbers_exit_cleanly(self, command, data):
        bases, keys, argv_strategy = FUZZ[command]
        argv = [command] + data.draw(argv_strategy, label="argv")
        with tempfile.TemporaryDirectory() as work:
            cwd = os.getcwd()
            os.chdir(work)
            try:
                if not bases:
                    TestCoupling().write_fields(Path("."))
                else:
                    base = data.draw(st.sampled_from(bases), label="base")
                    overrides = data.draw(st.dictionaries(
                        st.sampled_from(keys), st.sampled_from(BAD_JSON),
                        max_size=2), label="config")
                    Path("cfg.json").write_text(json.dumps({**base, **overrides}))
                    argv += ["--config", "cfg.json"]
                before = sorted(os.listdir("."))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                after = sorted(os.listdir("."))
            finally:
                os.chdir(cwd)
        err = err.getvalue()
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert after == before

    @pytest.mark.parametrize("overrides, argv, message", [
        ({"nbar_th": math.nan}, ["rates", "--out", "out.csv"],
         "'nbar_th' must be finite"),
        ({"nbar_photon": math.inf}, ["rates", "--out", "out.csv"],
         "'nbar_photon' must be finite"),
        ({}, ["feasibility", "--dominance", "nan", "--out", "out.json"],
         "dominance must be a finite number"),
        ({"bogus": "x"}, ["sweep", "--axis", "g2_hz", "--grid", "list:",
                          "--out", "out.csv"], "unknown config key 'bogus'"),
        ({}, ["evolve", "--initial", "fock:0", "--t-final", "1e-4",
              "--dim", "0", "--out", "out.csv"], "dimension 0"),
        ({}, ["evolve", "--initial", "thermal:nan", "--t-final", "1e-4",
              "--out", "out.csv"], "thermal occupancy must be a finite number"),
        ({}, ["sweep", "--axis", "g2_hz", "--grid", "linear:1:inf:2",
              "--out", "out.csv"], "grid endpoint must be a finite number"),
    ])
    def test_leaks_of_the_old_checks_exit_one(
        self, overrides, argv, message, tmp_path, monkeypatch, capsys
    ):
        # these exited 0 or 2, ran at another size, or failed with a stray
        # message or a numpy warning
        monkeypatch.chdir(tmp_path)
        cfg = {} if "bogus" in overrides else REF_KW
        Path("cfg.json").write_text(json.dumps({**cfg, **overrides}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--config", "cfg.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert os.listdir(".") == ["cfg.json"]

    def test_artifacts_take_the_umask(self, ref_config, tmp_path):
        old = os.umask(0o022)
        try:
            assert main(["rates", "--config", ref_config,
                         "--out", str(tmp_path / "rates.csv")]) == 0
            assert main(["traject", "--config", ref_config, "--t-final", "0.01",
                         "--out", str(tmp_path / "run")]) == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()
                 if p.name != "config.json"}
        assert modes == {
            "rates.csv": 0o644, "run_stats.json": 0o644,
            "run_000_events.csv": 0o644, "run_000_staircase.csv": 0o644,
        }


FOOTPRINT = """
import json, sys
from qndsim import cli, lindblad, trajectories

out, config = sys.argv[1], sys.argv[2]

def run(*argv):
    assert cli.main([argv[0], "--config", config] + list(argv[1:])) == 0

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

run("rates", "--out", out + "/rates.csv")
run("sweep", "--axis", "g2_hz", "--grid", "log:1e4:1e6:3", "--out", out + "/sweep.csv")
run("traject", "--count", "2", "--t-final", "0.01", "--out", out + "/traj")
light = loaded()
run("evolve", "--initial", "fock:1", "--t-final", "2e-4", "--grid", "3",
    "--dim", "6", "--out", out + "/evolve.csv")
print(json.dumps({
    "light": light,
    "evolve": loaded(),
    "targets": [callable(vars(lindblad).get("solve_ivp")),
                callable(vars(trajectories).get("brentq"))],
}))
"""


class TestImportFootprint:
    """Only ``evolve`` and its kin load scipy's solvers, on first use."""

    HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse")

    def test_solvers_load_on_first_use(self, ref_config, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT, str(tmp_path), ref_config],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        heavy = [m for m in got["light"] if m.startswith(self.HEAVY)]
        assert heavy == []
        assert "scipy.integrate" in got["evolve"]
        # the benchmark's tracer wraps these two module attributes
        assert got["targets"] == [True, True]


# sha256 of every file the PINNED commands write, and of target.csv, by the
# test class that checks them; ``python3 tests/test_cli.py`` re-records them
GOLDEN_CLI = Path(__file__).with_name("golden_cli_artifacts.json")

# the configs the pinned commands read, by file name
CONFIGS = {
    "ref.json": REF_KW,
    "detuned.json": dict(REF_KW, delta_hz=120e6, nbar_th=0.75),
    "no_g1.json": dict(REF_KW, g1_hz=0.0),
    "sweep_int.json": {
        "omega_m_hz": 2_000_000_000, "gamma_m_hz": 1000,
        "kappa_hz": 500_000_000, "delta_hz": 0, "g1_hz": 50_000,
        "g2_hz": 100_000, "nbar_th": 0.25, "power_w": 2e-8,
        "omega_d_hz": 2**53 + 1,
    },
    "twomode_cfg.json": dict(TWOMODE_KW, nbar_1=100),
}
# the field writer's target.csv is pinned; the other inputs are not
UNPINNED = {*CONFIGS, "partner.csv"}

# the test class that checks its files; argv, run in that class's work
# directory with relative input paths; the exit code; why its files are pinned
PINNED = (
    ("TestArtifactBytes", "rates --config ref.json --out rates.csv", 0,
     "the rate table at the reference point"),
    ("TestArtifactBytes", "sweep --config ref.json --axis g2_hz "
     "--grid log:1e4:1e6:7 --out sweep.csv", 0, "a log grid of verdicts"),
    ("TestArtifactBytes", "traject --config ref.json --count 4 --t-final 0.05 "
     "--seed 3 --out traj", 0, "seeded chains: events, staircases and stats"),
    ("TestArtifactBytes", "traject --config ref.json --count 4 --t-final 0.05 "
     "--seed 3 --window 0.0003 --out win", 0,
     "a short last bin: 0.05 / 0.0003 is not an integer"),
    ("TestExactPathBytes", "rates --config ref.json --format json "
     "--out rates.json", 0, "the rate table through the JSON writer"),
    ("TestExactPathBytes", "feasibility --config ref.json --out feas_ref.json",
     2, "the exit-2 verdict: the reference point fails the default dominance"),
    ("TestExactPathBytes", "feasibility --config ref.json --dominance 5 "
     "--out feasibility.json", 0, "the passing verdict at the reference point"),
    ("TestExactPathBytes", "feasibility --config detuned.json --n 2 "
     "--out feas_detuned.json", 2, "a detuned point: the two sidebands differ"),
    ("TestExactPathBytes", "feasibility --config no_g1.json --dominance 5 "
     "--out feas_no_g1.json", 0, "no g1: an infinite linear limit"),
    ("TestInputPathBytes", "sweep --config sweep_int.json --axis g2_hz "
     "--grid log:1e4:1e6:3 --out sweep_int.csv", 0,
     "integers, one above 2**53, in the manifest"),
    ("TestInputPathBytes", "twomode --config twomode_cfg.json --format json "
     "--x-zpf 1e-15 --out twomode.json", 0,
     "the input path appears in the manifest"),
    ("TestInputPathBytes", "twomode --config twomode_cfg.json --format csv "
     "--x-grid list:0,0.001 --out twomode.csv", 0,
     "the branch sweep, input path in the manifest"),
    ("TestInputPathBytes", "coupling --field target.csv --others partner.csv "
     "--x-zpf 1e-15 --out coupling.json", 0,
     "the field file paths appear in the manifest"),
)


def run_pinned(work, *classes):
    """Run the PINNED commands of ``classes`` (default: all) through
    ``cli.main``, each class in ``work/<class>`` with the inputs its commands
    read, and return the sha256 of each pinned file, by class and name."""
    cwd = os.getcwd()
    digests = {}
    try:
        for group in classes or dict.fromkeys(g for g, *_ in PINNED):
            rows = [(argv, code) for g, argv, code, _why in PINNED if g == group]
            read = {word for argv, _code in rows for word in argv.split()}
            here = Path(work, group)
            here.mkdir(exist_ok=True)
            os.chdir(here)
            for name in read & CONFIGS.keys():
                Path(name).write_text(json.dumps(CONFIGS[name]))
            if "target.csv" in read:
                TestCoupling().write_fields(Path("."))
            for argv, code in rows:
                assert main(argv.split()) == code, argv
            digests[group] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(here.iterdir()) if p.name not in UNPINNED
            }
    finally:
        os.chdir(cwd)
    return digests


def dispatched_cpu_features():
    """numpy's runtime-dispatched SIMD targets that this CPU supports."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


ENVIRONMENTS = {
    "default": {},
    "no_simd_dispatch": {
        "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched_cpu_features())
    },
    "prescott_blas": {"OPENBLAS_CORETYPE": "Prescott"},
}


def pinned_in_fresh_process(environment, work, *classes):
    """:func:`run_pinned` in a new interpreter under one of ENVIRONMENTS,
    with ``QND_THREADS=1`` so that ``meta.threads`` does not follow the host."""
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env.update(ENVIRONMENTS[environment], QND_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, test_cli; "
         "print(json.dumps(test_cli.run_pinned(*sys.argv[1:])))",
         str(work), *classes],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def file_states(work, pins):
    return {(g, n): (st.st_ino, st.st_mtime_ns, st.st_mode)
            for g, names in pins.items() for n in names
            for st in [Path(work, g, n).stat()]}


class PinnedFiles:
    """The files of this class's PINNED commands, run in a fresh process
    under the default environment, against their pins."""

    def test_files_match_recorded_digests(self, tmp_path):
        group = type(self).__name__
        pins = json.loads(GOLDEN_CLI.read_text())[group]
        assert pinned_in_fresh_process("default", tmp_path, group) == {group: pins}


class TestArtifactBytes(PinnedFiles):
    """The rate table, a sweep and seeded trajectories, byte for byte; and
    a rerun of the whole table leaves its files alone."""

    def test_rerun_leaves_files_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QND_THREADS", "1")
        pins = run_pinned(tmp_path)
        # a mode the rewrite would not give, to show the file is left alone
        (tmp_path / "TestArtifactBytes" / "rates.csv").chmod(0o600)
        before = file_states(tmp_path, pins)
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda *a: replaced.append(a) or real_replace(*a)
        )
        assert run_pinned(tmp_path) == pins == json.loads(GOLDEN_CLI.read_text())
        assert replaced == []
        assert file_states(tmp_path, pins) == before
        assert not list(tmp_path.glob("*/.tmp-*"))

    def test_changed_config_rewrites_its_files(self, tmp_path, monkeypatch):
        pins = run_pinned(tmp_path)
        before = file_states(tmp_path, pins)
        monkeypatch.chdir(tmp_path / "TestArtifactBytes")
        Path("changed.json").write_text(json.dumps(dict(REF_KW, nbar_th=0.5)))
        sweep = next(argv for _g, argv, *_ in PINNED if argv.endswith(" sweep.csv"))
        assert main(sweep.replace("ref.json", "changed.json").split()) == 0
        after = file_states(tmp_path, pins)
        key = ("TestArtifactBytes", "sweep.csv")
        assert after.pop(key)[0] != before.pop(key)[0]
        assert "nbar_th=0.5" in Path("sweep.csv").read_text()
        assert after == before


class TestExactPathBytes(PinnedFiles):
    """The exact-arithmetic outputs: the verdicts and the JSON rate table."""


class TestInputPathBytes(PinnedFiles):
    """The outputs whose manifests record input paths or raw config values."""


class TestCrossMachineDeterminism:
    """The whole table, in a fresh process per environment: numpy's
    dispatched SIMD targets switched off, and OpenBLAS forced to its oldest
    x86-64 kernel, against the same pins. ``evolve`` and the quantum-jump
    unraveling hold per machine only, so they are left out."""

    def test_outputs_do_not_follow_simd_or_blas(self, tmp_path):
        pins = json.loads(GOLDEN_CLI.read_text())
        for environment in ENVIRONMENTS.keys() - {"default"}:
            work = tmp_path / environment
            work.mkdir()
            assert pinned_in_fresh_process(environment, work) == pins, environment


def record_golden_cli_artifacts():
    """Rewrite GOLDEN_CLI from fresh runs under every environment; refuse,
    naming the files, when the environments disagree."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for environment in ENVIRONMENTS:
            work = Path(tmp, environment)
            work.mkdir()
            runs.append(pinned_in_fresh_process(environment, work))
    files = sorted({(g, n) for run in runs for g in run for n in run[g]})
    differ = [n for g, n in files
              if len({run.get(g, {}).get(n) for run in runs}) > 1]
    if differ:
        sys.exit("not recorded, the environments disagree on: " + ", ".join(differ))
    GOLDEN_CLI.write_text(json.dumps(runs[0], indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_golden_cli_artifacts()
