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
    def write_config(self, tmp_path, **extra):
        cfg = {
            "omega_0_hz": 200e12,
            "nu_hz": 10e9,
            "G1_a1_hz_per_m": 2e9,
            "G1_a2_hz_per_m": -2e9,
            "kappa_hz": 1e6,
            **extra,
        }
        path = tmp_path / "twomode.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_json_report(self, tmp_path):
        cfg = self.write_config(tmp_path, nbar_1=100.0)
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


class TestArtifactBytes:
    """Every byte the reference commands write, pinned by sha256.

    The digests were recorded with the row-by-row CSV renderer and the
    per-bin boxcar loop, so the column renderer and the stay-binned boxcar
    must reproduce those files exactly. ``QND_THREADS=1`` fixes
    ``meta.threads`` in the stats JSON, the one field that follows the host.
    """

    RUNS = (
        ["rates", "--out", "{d}/rates.csv"],
        ["sweep", "--axis", "g2_hz", "--grid", "log:1e4:1e6:7",
         "--out", "{d}/sweep.csv"],
        ["traject", "--count", "4", "--t-final", "0.05", "--seed", "3",
         "--out", "{d}/traj"],
        # 0.05 / 0.0003 is not an integer: a short last bin
        ["traject", "--count", "4", "--t-final", "0.05", "--seed", "3",
         "--window", "0.0003", "--out", "{d}/win"],
    )
    SHA256 = {
        "rates.csv": "b01f644f4f15cd682a6d450029e4bf7d43b7636938377f91c19ce5607693da0a",
        "sweep.csv": "c7850bca703557bd7dd61b51db3f303d9a633b82a2c1edd5c98afa4716de2dff",
        "traj_000_events.csv": "f734c4368e70628f71f5b23c26a6949e4651e9c517995c5d4a05c9c4705d574d",
        "traj_000_staircase.csv": "978e36d19041dc064e0ad42a44b1005c09c625c436ecd0bcc0b77bea70f8e684",
        "traj_001_events.csv": "f4ed68d1b21eb4acfd1b1486ed42e667a6c256fc58c9b8d80e7a4aa0ed6843c7",
        "traj_001_staircase.csv": "d460bddabeef53e35b9225ff7da4ecd31faf371d9dc66228807de5aceb87d508",
        "traj_002_events.csv": "db70b35d5ff38e4f81e12e9d6874b6968aa3c6a940587d7008bbbcc2cbe7b09c",
        "traj_002_staircase.csv": "06854d9d83a755569446be7544f1f490570404ac36dce9b0f7101cb88dd3bcbf",
        "traj_003_events.csv": "5029fd63b9b8effafcbc06234bd7bd9b4ffef83f23d4c75f259d44a3a4f0f573",
        "traj_003_staircase.csv": "057521280ea71ebb94ef874a4900854a40a9b04bf26c7fa0ef06cff6472488c7",
        "traj_stats.json": "52dac2be210fc4657af7f569de54c27a586ac4ac2763bbb3e6419f6b8a9f602d",
        "win_000_events.csv": "3ca010431314f0a3c04e5381de904bde770efa19393aea4c644ea79229598ee0",
        "win_000_staircase.csv": "041dd59315466190aa2c6ec5453ca3f380f9496d6e5de7500346ca79d56be8e9",
        "win_001_events.csv": "3427ece8e4e046baea87e3e8c0333e4ad8e2ad367c5228818953d067109c307d",
        "win_001_staircase.csv": "3cc1b11598a71bbff5f506f3b9b54180bff6c767bbfefb8bc9b4fe099220f23b",
        "win_002_events.csv": "67b4eaf8ef79a277962d0dc8c2aa79888282453b8cf51d62f33c16fdfcf03270",
        "win_002_staircase.csv": "254b117475b22caa75470c8f941b119b3fd385cdcaaf5c3f85a50e9c16c2e42e",
        "win_003_events.csv": "d394028b7df61b1485dabd18ed5b6a0bf28dae50ea8b641e6dc4825e91abefa7",
        "win_003_staircase.csv": "7a86cc62950ef9d779c4c485d35687233cccd11ea18046efd7589b6693595836",
        "win_stats.json": "59eed64b3ef7e7260db6257b3586d6c2f164ca382a9873546dd038e2f8221272",
    }

    def run_all(self, config, out):
        for argv in self.RUNS:
            args = [a.format(d=out) for a in argv[1:]]
            assert main([argv[0], "--config", config] + args) == 0

    @staticmethod
    def digests(out):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        }

    def test_files_match_recorded_digests(
        self, ref_config, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("QND_THREADS", "1")
        out = tmp_path / "out"
        out.mkdir()
        self.run_all(ref_config, out)
        assert self.digests(out) == self.SHA256

    @staticmethod
    def file_states(out):
        return {
            p.name: (st.st_ino, st.st_mtime_ns, st.st_mode)
            for p in sorted(out.iterdir())
            for st in [p.stat()]
        }

    def test_rerun_leaves_files_untouched(self, ref_config, tmp_path, monkeypatch):
        monkeypatch.setenv("QND_THREADS", "1")
        out = tmp_path / "out"
        out.mkdir()
        self.run_all(ref_config, out)
        # a mode the rewrite would not give, to show the file is left alone
        (out / "rates.csv").chmod(0o600)
        before = self.file_states(out)
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda *a: replaced.append(a) or real_replace(*a)
        )
        self.run_all(ref_config, out)
        assert replaced == []
        assert self.file_states(out) == before
        assert not list(out.glob(".tmp-*"))
        assert self.digests(out) == self.SHA256

    def test_changed_config_rewrites_its_files(self, ref_config, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        self.run_all(ref_config, out)
        before = self.file_states(out)
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(dict(REF_KW, nbar_th=0.5)))
        sweep = [a.format(d=out) for a in self.RUNS[1]]
        assert main(sweep[:1] + ["--config", str(changed)] + sweep[1:]) == 0
        after = self.file_states(out)
        assert after["sweep.csv"][0] != before["sweep.csv"][0]
        assert "nbar_th=0.5" in (out / "sweep.csv").read_text()
        del before["sweep.csv"], after["sweep.csv"]
        assert after == before


class TestExactPathBytes:
    """The exact-arithmetic outputs, pinned by sha256.

    Recorded before the rational statements of the rates were folded into
    the channel table: the reference verdict (which fails at the default
    dominance), a detuned point, a point without linear coupling (an
    infinite linear limit) and the JSON rate table.
    """

    RUNS = {
        "feas_ref.json": ({}, ["feasibility"], 2),
        "feas_detuned.json": (
            dict(delta_hz=120e6, nbar_th=0.75), ["feasibility", "--n", "2"], 2
        ),
        "feas_no_g1.json": (
            dict(g1_hz=0.0), ["feasibility", "--dominance", "5"], 0
        ),
        "rates.json": ({}, ["rates", "--format", "json"], 0),
    }
    SHA256 = {
        "feas_ref.json": (
            "49d4fdad04475e9c6598d2eb43d3c3cc91e82207d013b46cbb54382764f26a8d"
        ),
        "feas_detuned.json": (
            "ccdda3aa37fe9c12bd59a4d6c8ecd3db6d5c510c79f60fc185278d62c3c031ac"
        ),
        "feas_no_g1.json": (
            "eb420969d1aa95860a7489ddc8778f19b9f0ee4909bd17d887360e74ec1899c3"
        ),
        "rates.json": (
            "ed08447aad7f633bccfaec3fd9411e3c5ac911416c5252eb305a90aad20e2ac1"
        ),
    }

    def test_files_match_recorded_digests(self, tmp_path):
        got = {}
        for name, (overrides, argv, code) in self.RUNS.items():
            config = tmp_path / ("cfg_" + name)
            config.write_text(json.dumps(dict(REF_KW, **overrides)))
            out = tmp_path / name
            args = argv + ["--config", str(config), "--out", str(out)]
            assert main(args) == code, name
            got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == self.SHA256


class TestInputPathBytes:
    """Outputs of the config and flag readers, pinned by sha256.

    Recorded before the readers were merged into one. The runs use
    relative paths because ``twomode`` and ``coupling`` put their input
    paths in the manifest. The sweep config holds integers, one of them
    above 2**53, so the manifest's raw config values are pinned too.
    """

    TWOMODE = {**TWOMODE_KW, "nbar_1": 100}
    SWEEP = {
        "omega_m_hz": 2_000_000_000,
        "gamma_m_hz": 1000,
        "kappa_hz": 500_000_000,
        "delta_hz": 0,
        "g1_hz": 50_000,
        "g2_hz": 100_000,
        "nbar_th": 0.25,
        "power_w": 2e-8,
        "omega_d_hz": 2**53 + 1,
    }
    RUNS = {
        "twomode.json": ["twomode", "--config", "twomode_cfg.json",
                         "--format", "json", "--x-zpf", "1e-15"],
        "twomode.csv": ["twomode", "--config", "twomode_cfg.json",
                        "--format", "csv", "--x-grid", "list:0,0.001"],
        "coupling.json": ["coupling", "--field", "target.csv",
                          "--others", "partner.csv", "--x-zpf", "1e-15"],
        "sweep.csv": ["sweep", "--config", "sweep_cfg.json", "--axis", "g2_hz",
                      "--grid", "log:1e4:1e6:3"],
    }
    SHA256 = {
        "target.csv": (
            "c189b50b453b6b049d725c10254185f53ed67be2567ef5906969c6062437af2c"
        ),
        "twomode.json": (
            "1edce75d9d79dd7b57ae0b9c3ab9daf11b88897fedd45cc05da00296fbb82763"
        ),
        "twomode.csv": (
            "3a4f8d9d5457eff88dcc8af28665ab38572c2edfa92a4e66b3eb662f0369fd5a"
        ),
        "coupling.json": (
            "920b8b09b13fcb73887d0233fd7a3390b97bf6cf1811c8760599aa26e8c9a309"
        ),
        "sweep.csv": (
            "59a76a8a902338a42e9a7feb779c422b537831e7f0f8f3e8f3d3c643b0dcd8b1"
        ),
    }

    def test_files_match_recorded_digests(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("twomode_cfg.json").write_text(json.dumps(self.TWOMODE))
        Path("sweep_cfg.json").write_text(json.dumps(self.SWEEP))
        TestCoupling().write_fields(Path("."))
        for name, argv in self.RUNS.items():
            assert main(argv + ["--out", name]) == 0, name
        names = ["target.csv"] + list(self.RUNS)
        got = {n: hashlib.sha256(Path(n).read_bytes()).hexdigest() for n in names}
        assert got == self.SHA256


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


DETERMINISM = """
import hashlib, sys
from pathlib import Path
from qndsim import cli

out, config = Path(sys.argv[1]), sys.argv[2]
runs = (
    ["rates", "--out", "rates.csv"],
    ["feasibility", "--dominance", "5", "--out", "feasibility.json"],
    ["sweep", "--axis", "g2_hz", "--grid", "log:1e4:1e6:7", "--out", "sweep.csv"],
    ["traject", "--count", "4", "--t-final", "0.05", "--seed", "3", "--out", "traj"],
)
for argv in runs:
    args = [argv[0], "--config", config] + argv[1:-1] + [str(out / argv[-1])]
    assert cli.main(args) == 0, argv
digest = hashlib.sha256()
for path in sorted(out.iterdir()):
    digest.update(path.name.encode() + b"\\0" + path.read_bytes())
print(digest.hexdigest())
"""


def dispatched_cpu_features():
    """numpy's runtime-dispatched SIMD targets that this CPU supports."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


class TestCrossMachineDeterminism:
    """The outputs the README promises on every machine do not follow the
    SIMD target or the BLAS kernel.

    ``rates``, ``feasibility``, ``sweep`` and ``traject`` run in one fresh
    process per environment: the defaults, numpy's dispatched SIMD targets
    switched off, and OpenBLAS forced to its oldest x86-64 kernel. ``evolve``
    and the quantum-jump unraveling hold per machine only, so they are
    left out.
    """

    ENVIRONMENTS = {
        "default": {},
        "no_simd_dispatch": {
            "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched_cpu_features())
        },
        "prescott_blas": {"OPENBLAS_CORETYPE": "Prescott"},
    }

    def test_outputs_do_not_follow_simd_or_blas(self, ref_config, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        digests = {}
        for name, extra in self.ENVIRONMENTS.items():
            env = {
                k: v for k, v in os.environ.items()
                if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
            }
            env.update(extra, PYTHONPATH=str(src), QND_THREADS="1")
            out = tmp_path / name
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", DETERMINISM, str(out), ref_config],
                env=env, cwd=tmp_path, capture_output=True, text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests[name] = proc.stdout.split()[-1]
        assert len(set(digests.values())) == 1, digests
