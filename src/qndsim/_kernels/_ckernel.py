"""ctypes front of the compiled jump-chain kernel (_jump.c).

The C code indexes the rate table without bounds checks, so ``run`` checks
the table's dtype, layout and shape and the initial state before every
call. Uniforms are drawn in chunks and handed to C; the generator belongs
to one chain, so drawing ahead changes the draw count, not the events.
"""

from __future__ import annotations

import ctypes
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

CHUNK = 4096

_NEEDS_DRAWS = 2
_OUTPUT_FULL = 3


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


class Kernel:
    """The ``qnd_jump`` function of a compiled _jump.c, with a checked ``run``."""

    def __init__(self, path):
        fn = ctypes.CDLL(str(path)).qnd_jump
        i64, p_i64 = ctypes.c_int64, ctypes.POINTER(ctypes.c_int64)
        fn.argtypes = [
            _array(np.float64), i64, ctypes.c_double,
            _array(np.float64), i64, p_i64, p_i64,
            ctypes.POINTER(ctypes.c_double),
            _array(np.float64), _array(np.int64), _array(np.uint8),
            i64, p_i64,
        ]
        fn.restype = ctypes.c_int
        self._fn = fn

    def run(self, rng, n0: int, t_final: float, cum, n_cap: int):
        """Same contract as ``_gillespie_py.run``."""
        n0, n_cap, t_final = int(n0), int(n_cap), float(t_final)
        if not (
            isinstance(cum, np.ndarray)
            and cum.dtype == np.float64
            and cum.flags.c_contiguous
            and cum.shape == (n_cap, 6)
        ):
            raise ValueError(
                "rate table must be a C-contiguous float64 array of shape "
                "(n_cap, 6) = (%d, 6)" % n_cap
            )
        if not 0 <= n0 < n_cap:
            raise ValueError("n0 = %d must lie in 0..%d" % (n0, n_cap - 1))
        buf = rng.random(CHUNK)
        out = (np.empty(1024), np.empty(1024, np.int64), np.empty(1024, np.uint8))
        bi, n, k = ctypes.c_int64(0), ctypes.c_int64(n0), ctypes.c_int64(0)
        t = ctypes.c_double(0.0)
        while True:
            status = self._fn(
                cum, n_cap, t_final, buf, len(buf), ctypes.byref(bi),
                ctypes.byref(n), ctypes.byref(t), *out, len(out[0]),
                ctypes.byref(k),
            )
            if status == _NEEDS_DRAWS:
                buf = np.concatenate((buf[bi.value:], rng.random(CHUNK)))
                bi.value = 0
            elif status == _OUTPUT_FULL:
                out = tuple(np.concatenate((a, np.empty_like(a))) for a in out)
            else:
                return (status,) + tuple(a[: k.value].copy() for a in out)


def find():
    """The kernel built next to this file by setup.py, or None."""
    here = Path(__file__).parent
    for suffix in EXTENSION_SUFFIXES:
        path = here / ("_jump" + suffix)
        if path.exists():
            try:
                return Kernel(path)
            except (OSError, AttributeError):  # unloadable or foreign file
                return None
    return None
