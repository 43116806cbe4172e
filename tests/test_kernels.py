"""Backend selection, the kernel loader and bit-level parity of the kernels.

The compiled kernel is the one ``qndsim._kernels`` built from _jump.c on
import, so the parity tests run wherever a C compiler exists.
"""

import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from qndsim import _kernels
from qndsim._kernels import BACKEND, BACKENDS, _ckernel, available_backends, get_backend
from qndsim.rates import channel_rates
from qndsim.system import SystemParams
from qndsim.trajectories import make_rng, simulate_jump_trajectory

from conftest import make_ref

GOLDEN = Path(__file__).with_name("golden_sideband_chain.json")
COMPILER = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
needs_compiler = pytest.mark.skipif(COMPILER is None, reason="no C compiler found")

# acceptance criterion 4: two-phonon sideband point, bottom rows busy
SIDEBAND = SystemParams.from_frequencies(
    omega_m_hz=800.0, kappa_hz=400.0, delta_hz=1600.0, g1_hz=280.0,
    g2_hz=150.0, gamma_m_hz=200.0, nbar_th=0.005, nbar_photon=1.0,
)


def cumulative(params, n_cap):
    return np.cumsum(channel_rates(params, n_cap), axis=1)


def ref_table(n_cap=52, **overrides):
    return cumulative(make_ref(**overrides), n_cap)


def thermal_table(up, down, n_cap):
    """Cumulative table of a bath-only chain: up*(n+1) and down*n."""
    fn = np.arange(n_cap, dtype=np.float64)
    rates = np.zeros((n_cap, 6))
    rates[:, 0] = up * (fn + 1.0)
    rates[:, 1] = down * fn
    return np.cumsum(rates, axis=1)


def assert_same(a, b):
    assert a[0] == b[0]
    for x, y in zip(a[1:], b[1:]):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


@pytest.fixture
def c_kernel():
    if COMPILER is None:
        pytest.skip("no C compiler found")
    return get_backend("c")


@pytest.fixture(params=BACKENDS)
def backend(request):
    if request.param == "c":
        request.getfixturevalue("c_kernel")
    return request.param


class TestSelection:
    def test_python_backend_always_available(self):
        assert "python" in available_backends()
        assert BACKEND in available_backends()

    def test_get_backend_unknown_name(self):
        with pytest.raises(ValueError, match="backend"):
            get_backend("fortran")

    def test_auto_prefers_compiled(self):
        kern = get_backend(None)
        if "c" in available_backends():
            assert kern is get_backend("c")
        else:
            assert kern is get_backend("python")

    def test_absent_compiled_backend_raises(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_compiled", None)
        assert available_backends() == ("python",)
        with pytest.raises(RuntimeError, match="not available"):
            get_backend("c")


class TestLoader:
    def copy_source(self, tmp_path):
        source = tmp_path / "_jump.c"
        shutil.copyfile(_ckernel.SOURCE, source)
        return source

    def fake_compiler(self, tmp_path, monkeypatch, script):
        """A shell script named cc, alone on PATH."""
        fake = tmp_path / "cc"
        fake.write_text("#!/bin/sh\n" + script)
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", str(tmp_path))
        return fake

    @needs_compiler
    def test_compiler_means_compiled_backend(self):
        # the benchmark and the tests run from the source tree: with a
        # compiler there, the import must have built the C kernel
        assert "c" in available_backends()
        assert BACKEND == "c"

    @needs_compiler
    def test_builds_next_to_source(self, tmp_path):
        source = self.copy_source(tmp_path)
        kern = _ckernel.find(source)
        assert isinstance(kern, _ckernel.Kernel)
        lib = _ckernel._library(source)
        assert lib.name.startswith("_jump-") and lib.suffix == ".so"
        assert {p.name for p in tmp_path.iterdir()} == {"_jump.c", lib.name}
        cum = ref_table()
        assert_same(
            get_backend("python").run(make_rng(4), 0, 0.2, cum, 52),
            kern.run(make_rng(4), 0, 0.2, cum, 52),
        )

    @needs_compiler
    def test_second_call_reuses_library(self, tmp_path, monkeypatch):
        source = self.copy_source(tmp_path)
        assert _ckernel.find(source) is not None

        def no_compile(*args):
            raise AssertionError("compiler ran again")

        monkeypatch.setattr(_ckernel, "_compile", no_compile)
        assert isinstance(_ckernel.find(source), _ckernel.Kernel)

    @needs_compiler
    def test_edited_source_is_rebuilt(self, tmp_path):
        source = self.copy_source(tmp_path)
        old = _ckernel._library(source)
        assert _ckernel.find(source) is not None
        source.write_text(source.read_text() + "/* edited */\n")
        assert _ckernel._library(source) != old
        assert _ckernel.find(source) is not None
        # the new build is the only one left: the old library is gone
        assert {p.name for p in tmp_path.iterdir()} == {
            "_jump.c", _ckernel._library(source).name,
        }

    def test_failing_compiler_warns(self, tmp_path, monkeypatch):
        source = self.copy_source(tmp_path)
        fake = self.fake_compiler(
            tmp_path, monkeypatch,
            "echo 'broken: cannot build' >&2\necho 'second line' >&2\nexit 1\n",
        )
        with pytest.warns(RuntimeWarning) as record:
            assert _ckernel.find(source) is None
        assert len(record) == 1
        message = str(record[0].message)
        assert str(fake) in message
        assert "broken: cannot build" in message
        assert "second line" not in message
        assert {p.name for p in tmp_path.iterdir()} == {"_jump.c", "cc"}

    def test_unwritable_directory_warns(self, tmp_path, monkeypatch):
        source = self.copy_source(tmp_path)
        fake = self.fake_compiler(tmp_path, monkeypatch, "exit 0\n")

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(tmp_path))

        monkeypatch.setattr(_ckernel.tempfile, "mkstemp", denied)
        with pytest.warns(RuntimeWarning, match="Permission denied") as record:
            assert _ckernel.find(source) is None
        assert str(fake) in str(record[0].message)

    def test_unloadable_library_warns(self, tmp_path):
        source = self.copy_source(tmp_path)
        _ckernel._library(source).write_bytes(b"not a shared library")
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert _ckernel.find(source) is None

    def test_no_compiler_is_silent(self, tmp_path, monkeypatch):
        source = self.copy_source(tmp_path)
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ckernel.find(source) is None
        assert [p.name for p in tmp_path.iterdir()] == ["_jump.c"]


class TestPythonKernel:
    def test_zero_rates_no_events(self):
        kern = get_backend("python")
        status, times, states, chans = kern.run(
            make_rng(1), 3, 1.0, np.zeros((50, 6)), 50
        )
        assert status == 0
        assert len(times) == len(states) == len(chans) == 0

    def test_event_record_consistency(self):
        kern = get_backend("python")
        status, times, states, chans = kern.run(
            make_rng(7), 0, 0.05, ref_table(), 52
        )
        assert status == 0
        assert np.all(np.diff(times) > 0)
        assert times[-1] <= 0.05
        deltas = np.array([1, -1, 1, -1, 2, -2])[chans]
        walk = np.concatenate([[0], deltas]).cumsum()[1:]
        assert np.array_equal(walk, states)
        assert states.min() >= 0

    def test_truncation_status(self):
        # enormous heating against a low cap must stop the run
        kern = get_backend("python")
        cum = thermal_table(1e9, 0.0, 5)
        status, times, states, chans = kern.run(make_rng(3), 0, 10.0, cum, 5)
        assert status == 1
        assert states[-1] == 5
        assert len(times) == 5

    def test_same_seed_bit_identical(self):
        kern = get_backend("python")
        a = kern.run(make_rng(42), 0, 0.1, ref_table(), 52)
        b = kern.run(make_rng(42), 0, 0.1, ref_table(), 52)
        for x, y in zip(a[1:], b[1:]):
            assert np.array_equal(x, y)


class TestBackendParity:
    # the two kernels must consume the identical Philox stream and agree
    # bit for bit, not merely statistically

    @pytest.mark.parametrize(
        "seed,n0,t_final,overrides",
        [
            (42, 0, 0.5, {}),
            (7, 3, 0.2, {}),
            (123456789, 0, 0.05, {"nbar_photon": 1.0}),
            (2**63 - 1, 1, 0.1, {"nbar_th": 2.0}),
            (0, 0, 0.3, {"g1_hz": 0.0, "g2_hz": 0.0}),
        ],
    )
    def test_bit_parity(self, c_kernel, seed, n0, t_final, overrides):
        cum = ref_table(**overrides)
        py = get_backend("python").run(make_rng(seed), n0, t_final, cum, 52)
        assert_same(py, c_kernel.run(make_rng(seed), n0, t_final, cum, 52))

    def test_bit_parity_across_chunk_boundary(self, c_kernel):
        # >2 RNG refill chunks (4096 draws each): a long reference run
        cum = ref_table()
        py = get_backend("python").run(make_rng(11), 0, 2.0, cum, 52)
        assert len(py[1]) > 5000  # two uniforms per event
        assert_same(py, c_kernel.run(make_rng(11), 0, 2.0, cum, 52))

    def test_truncation_parity(self, c_kernel):
        cum = thermal_table(3e4, 1e4, 8)
        py = get_backend("python").run(make_rng(5), 0, 50.0, cum, 8)
        assert py[0] == 1
        assert_same(py, c_kernel.run(make_rng(5), 0, 50.0, cum, 8))

    @pytest.mark.parametrize("t_final,count", [(57.5, 20), (5.0, 200)])
    def test_sideband_ensemble_parity(self, c_kernel, t_final, count):
        # the jump_ensemble workload's chains, several output regrowths long
        cum = cumulative(SIDEBAND, 20)
        events = 0
        for seed in range(count):
            py = get_backend("python").run(make_rng(seed), 0, t_final, cum, 20)
            assert_same(py, c_kernel.run(make_rng(seed), 0, t_final, cum, 20))
            events += len(py[1])
        assert events > 40 * count

    def test_all_zero_table(self, c_kernel):
        cum = np.zeros((20, 6))
        py = get_backend("python").run(make_rng(1), 3, 1.0, cum, 20)
        assert len(py[1]) == 0
        assert_same(py, c_kernel.run(make_rng(1), 3, 1.0, cum, 20))

    def test_walk_below_zero_stops(self, c_kernel):
        # a malformed table with a down-rate at n = 0 must end the chain,
        # not index the row before the table
        cum = np.ones((4, 6))
        cum[:, 0] = 0.0
        py = get_backend("python").run(make_rng(2), 0, 1.0, cum, 4)
        assert py[0] == 1
        assert py[2].tolist() == [-1]
        assert_same(py, c_kernel.run(make_rng(2), 0, 1.0, cum, 4))


class _Stream:
    """Stand-in generator repeating a fixed list of uniforms."""

    def __init__(self, values):
        self.values = np.array(values)
        self.drawn = 0

    def random(self, size):
        idx = np.arange(self.drawn, self.drawn + size) % len(self.values)
        self.drawn += size
        return self.values[idx]


def test_channel_is_first_k_with_v_below_cum(backend):
    # v landing exactly on a running sum goes to the next channel, and a
    # zero-rate channel (2, 5) is never taken
    cum = np.tile([0.25, 0.5, 0.5, 0.75, 1.0, 1.0], (20, 1))
    stream = _Stream([0.5, 0.25, 0.5, 0.5, 0.5, 0.0, 0.5, 0.75])
    status, times, states, chans = get_backend(backend).run(stream, 5, 3.0, cum, 20)
    wait = -np.log(0.5)
    assert status == 0
    assert times.tolist() == [wait, 2 * wait, 3 * wait, 4 * wait]
    assert chans.tolist() == [1, 3, 0, 4]
    assert states.tolist() == [4, 3, 4, 6]


class TestCompiledKernelChecks:
    @pytest.mark.parametrize(
        "table,n0",
        [
            (np.zeros((19, 6)), 0),
            (np.zeros((20, 5)), 0),
            (np.zeros((20, 6), dtype=np.float32), 0),
            (np.asfortranarray(np.zeros((20, 6))), 0),
            (np.zeros((20, 12))[:, ::2], 0),
            (np.zeros((20, 6)).tolist(), 0),
            (np.zeros((20, 6)), -1),
            (np.zeros((20, 6)), 20),
        ],
        ids=["short", "narrow", "float32", "fortran", "strided", "list",
             "n0_negative", "n0_at_cap"],
    )
    def test_rejects_what_c_would_misread(self, c_kernel, table, n0):
        with pytest.raises(ValueError):
            c_kernel.run(make_rng(1), n0, 1.0, table, 20)


def test_golden_sideband_chain(backend):
    # Pinned from the Python twin. The waiting time goes through libm log,
    # so a platform whose log rounds differently shows up here.
    gold = json.loads(GOLDEN.read_text())
    tr = simulate_jump_trajectory(
        SIDEBAND, gold["n0"], gold["t_final"], gold["seed"],
        n_cap=gold["n_cap"], backend=backend,
    )
    assert [t.hex() for t in tr.times.tolist()] == gold["times"]
    assert tr.new_ns.tolist() == gold["states"]
    assert tr.channels.tolist() == gold["channels"]
