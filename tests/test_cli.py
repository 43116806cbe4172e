"""End-to-end runs of the command-line surface, in process."""

import hashlib
import json
import math

import numpy as np
import pytest

from qndsim import _kernels
from qndsim.cli import main
from qndsim.constants import TWO_PI
from qndsim.coupling import ModeField, PermittivityPerturbation, write_field_csv

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

    def test_files_match_recorded_digests(
        self, ref_config, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("QND_THREADS", "1")
        out = tmp_path / "out"
        out.mkdir()
        for argv in self.RUNS:
            args = [a.format(d=out) for a in argv[1:]]
            assert main([argv[0], "--config", ref_config] + args) == 0
        got = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        }
        assert got == self.SHA256
