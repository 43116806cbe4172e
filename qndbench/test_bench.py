"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest qndbench -q``.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_source()

from tracing import Tracer, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
SEVEN = ("setup_s", "request_p50_s", "request_tail_s", "requests_per_s",
         "events_per_s", "peak_rss_mb", "failed_ops")


def tiny_run(name, trace=False, seconds=0.05, **kw):
    kw.setdefault("tiny", True)
    return run.run_workload(name, WORKLOADS[name].default_seed, seconds, trace,
                            setup_repeats=1, **kw)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    plain = tiny_run(name)
    assert plain["correct"], (plain["problems"], plain["run_problems"])
    assert set(plain["report"]) == set(SEVEN)
    assert plain["report"]["failed_ops"] == 0.0
    assert (plain["report"]["events_per_s"] is None) == (name == "master_equation")
    emitted = {k: v["unit"] for k, v in plain["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = tiny_run(name, trace=True)
    assert traced["correct"], (traced["problems"], traced["run_problems"])
    emitted = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_flipped_channel_counts_as_failed():
    def corrupt(i, out):
        if i == 1:
            traj = next(t for t in out[1] if t.n_events)
            traj.channels = traj.channels.copy()
            traj.channels[0] ^= 1  # up <-> down: the state path breaks
        return out

    res = tiny_run("quantum_jump", corrupt=corrupt)
    assert res["failed"] == 1
    assert res["report"]["failed_ops"] == 1 / res["attempted"]
    assert "inconsistent" in res["problems"]["1"]


def test_perturbed_population_counts_as_failed():
    def corrupt(i, out):
        if i == 1:
            pops = out[0].copy()
            pops[-1, 0] += 1e-6
            out = (pops, out[1])
        return out

    res = tiny_run("master_equation", corrupt=corrupt)
    assert res["failed"] == 1
    assert "expm reference" in res["problems"]["1"]


def test_moved_count_breaks_the_stored_digest():
    def corrupt(i, out):
        if i == 1:
            row = int(np.argmax(out.counts[:, 0]))
            out.counts[row, 0] -= 1  # sums stay intact
            out.counts[row, 1] += 1
        return out

    res = tiny_run("jump_ensemble", tiny=False, corrupt=corrupt)
    assert res["failed"] == 1
    assert "stored" in res["problems"]["1"]


def test_changed_artifact_byte_counts_as_failed():
    def corrupt(i, out):
        if i == 2:
            path = out / "sweep.csv"
            data = bytearray(path.read_bytes())
            data[-2] ^= 1
            path.write_bytes(bytes(data))
        return out

    res = tiny_run("cli_artifacts", seconds=0.5, corrupt=corrupt)
    assert res["attempted"] >= 2
    assert res["failed"] == 1
    assert "first request" in res["problems"]["2"]


@pytest.mark.parametrize("name", ["jump_ensemble", "cli_artifacts"])
def test_stored_digest_holds_for_another_thread_count(monkeypatch, name):
    threads = (os.cpu_count() or 1) + 1  # not what the default picks
    monkeypatch.setenv("QND_THREADS", str(threads))
    res = tiny_run(name, tiny=False, seconds=0.1)
    assert res["correct"], (res["problems"], res["run_problems"])
    assert res["env"]["ensemble_threads"] == threads


def test_missing_target_leaves_its_metrics_absent(monkeypatch):
    import qndsim.trajectories

    monkeypatch.delattr(qndsim.trajectories.Trajectory, "boxcar")
    res = tiny_run("jump_ensemble", trace=True)
    assert res["correct"]
    assert "trajectories.boxcar_s" not in res["metrics"]
    assert "kernels.events" in res["metrics"]
    assert any(t.endswith("Trajectory.boxcar") for t in res["absent_targets"])


def test_union_and_self_time():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    t = Tracer()
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    index = t.children_index()
    assert inner.parent == outer.sid
    assert t.self_time(outer, index) == pytest.approx(
        outer.duration - inner.duration)


def test_tail_keeps_ten_samples_above():
    value, pct, above = run.tail([float(k) for k in range(40)])
    assert (value, above) == (29.0, 10)
    assert pct == pytest.approx(100 * 29 / 39)
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_layer_map_covers_every_per_layer_metric_once():
    groups = json.loads((HERE / "layer_map.json").read_text())["groups"]
    mapped = [m for g in groups for m in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for g in groups:
        assert set(g["exercised_by"]) | set(g["flat_on"]) <= set(WORKLOADS)
