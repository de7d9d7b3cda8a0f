"""Pin the BLAS to one thread and report the setting actually in effect.

pin() must run before numpy is first imported: OpenBLAS reads its thread
count from the environment when the library loads. One thread is both
faster and steadier at these shapes, and checkpoint bytes are only
reproducible for a fixed thread count.
"""

from __future__ import annotations

import ctypes
import glob
import os

THREADS = "1"
_ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Symbol names of openblas_get_num_threads across the numpy wheel builds.
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads")


def pin() -> None:
    for key in _ENV_KEYS:
        os.environ[key] = THREADS


def info() -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)  # same handle numpy already loaded
        for symbol in _GET_THREADS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads_env": {k: os.environ.get(k) for k in _ENV_KEYS},
        "threads_in_effect": threads,
    }
