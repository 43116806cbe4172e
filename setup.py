"""Build script for the optional compiled jump-chain kernel.

_jump.c is plain C over libm, loaded with ctypes, not a Python extension
module. The package works without it (the pure-Python twin gives the same
event lists), so a failed build only costs speed and does not stop the
install.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "qndsim._kernels._jump",
            ["src/qndsim/_kernels/_jump.c"],
            libraries=["m"],
            optional=True,
        )
    ]
)
