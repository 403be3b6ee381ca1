"""The numeric environment a process runs on, for test failure messages.

fingerprint() names what decides floating-point bits here: numpy's version
and the dispatch targets it uses on this CPU, and the core OpenBLAS picked
at run time. It reads them from numpy and, through ctypes, from the
OpenBLAS library that numpy ships; it adds no dependency. Run it as a
script to print the fingerprint.
"""

import ctypes
import glob
import os

import numpy as np


def active_dispatch_targets() -> list[str]:
    """numpy's compiled dispatch targets that this CPU and environment allow."""
    from numpy._core import _multiarray_umath as umath

    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def openblas_core() -> str:
    """The OpenBLAS core in use, or "unknown" where numpy ships no OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def fingerprint() -> str:
    dispatch = "+".join(active_dispatch_targets()) or "none"
    return f"numpy {np.__version__}, dispatch {dispatch}, OpenBLAS core {openblas_core()}"


if __name__ == "__main__":
    print(fingerprint())
