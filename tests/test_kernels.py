"""Backend selection and bit-level parity of the jump-chain kernels.

The compiled kernel is the installed one when present; otherwise _jump.c
is built here with the system C compiler and loaded through the same
ctypes front, so the parity tests run wherever a compiler exists.
"""

import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from qndsim import _kernels
from qndsim._kernels import BACKEND, BACKENDS, _ckernel, available_backends, get_backend
from qndsim.rates import channel_rates
from qndsim.system import SystemParams
from qndsim.trajectories import make_rng, simulate_jump_trajectory

from conftest import make_ref

SOURCE = Path(_kernels.__file__).with_name("_jump.c")
GOLDEN = Path(__file__).with_name("golden_sideband_chain.json")

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


@pytest.fixture(scope="module")
def c_kernel(tmp_path_factory):
    """The installed compiled kernel, else _jump.c built in a temp dir."""
    if "c" in available_backends():
        return get_backend("c")
    cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
    if cc is None:
        pytest.skip("no compiled kernel installed and no C compiler found")
    lib = tmp_path_factory.mktemp("ckernel") / "_jump.so"
    subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", "-o", str(lib), str(SOURCE), "-lm"],
        check=True,
    )
    return _ckernel.Kernel(lib)


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Each backend name, the compiled one registered even when built here."""
    if request.param == "c":
        monkeypatch.setattr(_kernels, "_compiled", request.getfixturevalue("c_kernel"))
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
