"""The deterministic output helpers: spellings, the column-wise CSV renderer
and the atomic write that skips identical files."""

import math
import os

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

    @pytest.mark.parametrize("dtype, values", [
        (np.int8, [-128, 0, 127]),
        (np.uint8, [0, 1, 255]),
        (np.int64, [-(2**63), 0, 2**63 - 1]),
        (np.uint64, [0, 2**63 + 12345, 2**64 - 1]),  # above the int64 range
        (np.float32, [0.1, -0.0, 1.0 / 3.0, 3.4e38, np.inf, np.nan, 1e-45]),
        (np.float64, [0.1, -0.0, 5e-324, -np.inf, np.nan]),
        (bool, [True, False, True]),
    ])
    def test_typed_arrays_match_row_renderer(self, dtype, values):
        column = np.array(values, dtype=dtype)
        # the row renderer sees each cell as its Python value
        rows = [[v] for v in column.tolist()]
        assert _io.render_csv(["x"], [column]) == render_rows(["x"], rows)

    def test_str_column_matches_row_renderer(self):
        names = [CHANNELS[k % len(CHANNELS)] for k in range(9)]
        rows = [[k, name] for k, name in enumerate(names)]
        assert _io.render_csv(["k", "channel"], [range(9), names]) == render_rows(
            ["k", "channel"], rows
        )

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
        _io.write_csv(str(path), *result.csv_header_columns(), meta={"dim": 8})
        assert path.read_text() == render_rows(header, rows, {"dim": 8})


class TestAtomicWrite:
    """A write whose bytes the file already holds leaves the file alone."""

    def test_identical_bytes_leave_the_file_untouched(self, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        _io.atomic_write_text(str(path), "x\n1\n")
        before = path.stat()
        monkeypatch.setattr(os, "replace", None)  # a rename would fail
        _io.atomic_write_text(str(path), "x\n1\n")
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert os.listdir(tmp_path) == ["a.csv"]

    def test_same_size_other_bytes_replaced(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x\n1\n")
        _io.atomic_write_text(str(path), "x\n2\n")
        assert path.read_text() == "x\n2\n"
        assert os.listdir(tmp_path) == ["a.csv"]

    def test_symlink_replaced_by_regular_file(self, tmp_path):
        # the link's own size, len("target.csv"), equals the text's
        text = "x\n1234567\n"
        target = tmp_path / "target.csv"
        target.write_text(text)
        path = tmp_path / "a.csv"
        path.symlink_to("target.csv")
        assert os.lstat(path).st_size == len(text)
        _io.atomic_write_text(str(path), text)
        assert not path.is_symlink() and path.read_text() == text
        assert target.read_text() == text

    def test_fifo_replaced_without_being_opened(self, tmp_path):
        path = tmp_path / "a.csv"
        os.mkfifo(path)
        _io.atomic_write_text(str(path), "x\n1\n")
        assert path.is_file() and path.read_text() == "x\n1\n"

    def test_directory_still_raises(self, tmp_path):
        path = tmp_path / "a.csv"
        path.mkdir()
        with pytest.raises(OSError):
            _io.atomic_write_text(str(path), "")
        assert path.is_dir()
        assert os.listdir(tmp_path) == ["a.csv"]
