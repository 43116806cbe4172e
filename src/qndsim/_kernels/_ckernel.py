"""ctypes front of the compiled jump-chain kernel (_jump.c), and its build.

``find`` compiles _jump.c on first use with the first C compiler on PATH
into a library beside the source, named by a hash of the source and the
flags, so a stale build never loads; a new build deletes the builds of
other hashes beside it. The C code indexes the rate table
without bounds checks, so ``run`` checks the table's dtype, layout and
shape and the initial state before every call. Uniforms are drawn in
chunks and handed to C; the generator belongs to one chain, so drawing
ahead changes the draw count, not the events.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_jump.c")
COMPILERS = ("cc", "gcc", "clang")
# no contraction into fused multiply-adds: the Python twin rounds each step
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

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


def _compiler():
    """Path of the first of COMPILERS on PATH, or None."""
    return next(filter(None, map(shutil.which, COMPILERS)), None)


def _library(source: Path) -> Path:
    """Where the build of this source with FLAGS lives: next to the source."""
    tag = hashlib.sha256(source.read_bytes() + " ".join(FLAGS).encode())
    return source.with_name("%s-%s.so" % (source.stem, tag.hexdigest()[:12]))


def _compile(compiler: str, source: Path, lib: Path) -> None:
    """Build ``source`` into a temp file beside ``lib``, then move it there."""
    fd, tmp = tempfile.mkstemp(prefix=lib.stem + ".", suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(source), "-lm"],
            check=True, capture_output=True, text=True, errors="replace",
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def find(source: Path = SOURCE):
    """The kernel built from ``source``, compiled on first use, or None.

    None without a compiler, silently. A build that fails, a directory
    that cannot be written or a library that does not load warns once,
    naming the compiler and the first line of the error, and yields None,
    so the Python twin runs.
    """
    compiler = None
    try:
        lib = _library(source)
        if not lib.exists():
            compiler = _compiler()
            if compiler is None:
                return None
            _compile(compiler, source, lib)
            for old in lib.parent.glob(source.stem + "-" + "?" * 12 + ".so"):
                if old != lib:
                    old.unlink(missing_ok=True)
        return Kernel(lib)
    except (OSError, AttributeError, subprocess.CalledProcessError) as exc:
        error = getattr(exc, "stderr", None) or str(exc) or type(exc).__name__
        warnings.warn(
            "compiled jump kernel from %s (compiler: %s) is unavailable: %s; "
            "running the Python kernel" % (source, compiler or "not run",
                                           error.strip().splitlines()[0]),
            RuntimeWarning, stacklevel=2,
        )
        return None
