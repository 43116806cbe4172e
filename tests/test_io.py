"""The deterministic output helpers: spellings and the column-wise CSV renderer."""

import math

import numpy as np
import pytest

from qndsim import _io
from qndsim.fock import fock_state
from qndsim.lindblad import evolve, reduced_generator
from qndsim.trajectories import (
    CHANNELS,
    simulate_jump_trajectory,
    write_events_csv,
    write_staircase_csv,
)

from conftest import make_ref


def render_rows(header, rows, meta=None):
    """Reference renderer: the row-by-row loop, one cell at a time."""
    lines = []
    if meta is not None:
        lines.append(_io.manifest_line(meta))
    lines.append(",".join(str(h) for h in header))
    for row in rows:
        lines.append(",".join(_io.format_value(v) for v in row))
    return "\n".join(lines) + "\n"


SPELLINGS = [
    (math.nan, "nan"),
    (-math.nan, "nan"),
    (math.copysign(math.nan, -1.0), "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (0.1, "0.10000000000000001"),
]


class TestSpellings:
    @pytest.mark.parametrize("value, text", SPELLINGS)
    def test_format_float(self, value, text):
        assert _io.format_float(value) == text
        assert _io.format_float(np.float64(value)) == text

    def test_float_column(self):
        values = np.array([v for v, _ in SPELLINGS])
        body = _io.render_csv(["x"], [values]).splitlines()[1:]
        assert body == [text for _, text in SPELLINGS]

    def test_json_spells_non_finite_like_csv(self):
        text = _io.render_json({"a": [math.nan, -math.inf, math.inf, 0.5]})
        assert '"nan"' in text and '"-inf"' in text and '"inf"' in text
        assert "0.5" in text

    def test_manifest_is_shared_by_csv_and_json(self):
        meta = {"b": 0.1, "a": True, "c": 3, "d": "x"}
        line = _io.manifest_line(meta)
        record = _io.render_json({}, meta=meta)
        digest, config = line.split(" ", 3)[2:]
        assert config == "a=true; b=0.10000000000000001; c=3; d=x"
        assert '"sha256_16": "%s"' % digest in record
        assert '"config": "%s"' % config in record


class TestRenderCsv:
    def test_mixed_columns_match_row_renderer(self):
        # the sweep's shape: Python floats, ints, bools and -1 markers
        rows = [
            [1e4, 80.0, -0.11333333333333333, -1, True, False],
            [1e5, 8000.0, 11.8, 11, False, True],
            [1e6, math.inf, math.nan, 0, True, True],
        ]
        header = ["a", "b", "c", "d", "e", "f"]
        meta = {"command": "sweep", "n": 0}
        columns = list(zip(*rows))
        assert _io.render_csv(header, columns, meta) == render_rows(
            header, rows, meta
        )

    def test_array_columns_match_row_renderer(self):
        floats = np.array([0.1, 1.0 / 3.0, 2.5e-7, -0.0])
        ints = np.array([0, 3, -2, 7], dtype=np.int64)
        flags = np.array([True, False, True, True])
        # array cells render as their Python values: np.bool_ as true/false
        rows = [list(r) for r in zip(floats, ints.tolist(), flags.tolist())]
        text = _io.render_csv(["x", "n", "ok"], [floats, ints, flags])
        assert text == render_rows(["x", "n", "ok"], rows)
        assert text.splitlines()[1:3] == [
            "0.10000000000000001,0,true",
            "0.33333333333333331,3,false",
        ]

    def test_empty_columns_give_header_only(self):
        assert _io.render_csv(["a", "b"], [np.array([]), []]) == "a,b\n"
        assert _io.render_csv(["a", "b"], []) == "a,b\n"

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            _io.render_csv(["a", "b"], [[1.0, 2.0], [1.0]])


class TestArtifactText:
    """The files the CLI writes, against the row renderer's text."""

    @pytest.mark.parametrize("seed", [8, 21])
    def test_events_and_staircase(self, tmp_path, seed):
        traj = simulate_jump_trajectory(make_ref(nbar_th=2.0), 0, 0.05, seed)
        assert traj.n_events > 100
        meta = {"seed": seed, "window_s": 0.0003}
        events = tmp_path / "events.csv"
        write_events_csv(traj, str(events), meta=meta)
        rows = [
            [float(t), int(n), CHANNELS[int(c)]]
            for t, n, c in zip(traj.times, traj.new_ns, traj.channels)
        ]
        assert events.read_text() == render_rows(
            ["time_s", "n", "channel"], rows, meta
        )
        for window in (0.05 / 200, 0.0003):
            stairs = tmp_path / "stairs.csv"
            write_staircase_csv(traj, str(stairs), window, meta=meta)
            centers, means = traj.boxcar(window)
            rows = [[float(t), float(m)] for t, m in zip(centers, means)]
            assert stairs.read_text() == render_rows(
                ["time_s", "mean_n"], rows, meta
            )

    def test_evolve_csv(self, tmp_path):
        result = evolve(
            reduced_generator(make_ref(), 8), fock_state(8, 2), 1e-4, grid=9
        )
        header, columns = result.csv_header_columns()
        d = result.populations.shape[1]
        rows = [
            [result.times[k]]
            + [result.populations[k, n] for n in range(d)]
            + [
                result.trace_errors[k],
                result.hermiticity_errors[k],
                result.min_eigenvalues[k],
            ]
            for k in range(len(result.times))
        ]
        path = tmp_path / "evolve.csv"
        result.write_csv(str(path), meta={"dim": 8})
        assert path.read_text() == render_rows(header, rows, {"dim": 8})
