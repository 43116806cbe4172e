"""Jump-chain kernels: a small compiled C core and its pure-Python twin.

Both read one cumulative rate table (see _gillespie_py) and consume the
same uniform stream from a caller-supplied numpy Generator, so a seed
gives the same event list on either backend. The C file is built by
setup.py when a compiler exists and loaded with ctypes; without it the
Python twin runs alone.
"""

from . import _ckernel, _gillespie_py

BACKENDS = ("c", "python")

_compiled = _ckernel.find()
BACKEND = "c" if _compiled is not None else "python"


def available_backends():
    return BACKENDS if _compiled is not None else ("python",)


def get_backend(name: str | None = None):
    """Kernel by name; None or "auto" selects the best available."""
    if name in (None, "auto"):
        return _compiled if _compiled is not None else _gillespie_py
    if name == "python":
        return _gillespie_py
    if name == "c":
        if _compiled is None:
            raise RuntimeError("compiled kernel is not available in this install")
        return _compiled
    raise ValueError(
        "unknown backend %r (use one of %s, or None)" % (name, ", ".join(BACKENDS))
    )
