"""Environment block written beside every benchmark result.

`pin_blas_threads` must run before numpy is first imported: OpenBLAS,
OpenMP and MKL read their thread counts from the environment once, at load.
`environment` then reports what is actually in effect, read back from the
loaded BLAS library rather than taken on trust from the request.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENFORCED_BY_ENV = "/".join(THREAD_VARS) + " set before numpy import"

# Exported thread-count getters of the OpenBLAS builds numpy ships or links.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def affinity_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Cap BLAS pools at the CPUs this process may run on; returns the cap."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads must run before numpy is imported")
    n = affinity_count()
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def _openblas_threads_in_effect(np) -> int | None:
    """Ask the OpenBLAS numpy loaded for its pool size; None if not found."""
    pkg = os.path.dirname(os.path.dirname(np.__file__))
    for lib in sorted(glob.glob(os.path.join(pkg, "numpy.libs", "*openblas*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _OPENBLAS_GETTERS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _threads_in_effect(np) -> tuple[int | None, str | None]:
    try:
        import threadpoolctl
    except ImportError:
        n = _openblas_threads_in_effect(np)
        return n, None if n is None else "openblas get_num_threads via ctypes"
    counts = [info["num_threads"] for info in threadpoolctl.threadpool_info()
              if info.get("user_api") == "blas"]
    return (max(counts) if counts else None), "threadpoolctl.threadpool_info"


def environment(requested_threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    in_effect, read_by = _threads_in_effect(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "cpu_count": os.cpu_count(),
        "affinity_count": affinity_count(),
        "blas_threads_requested": requested_threads,
        "blas_threads_in_effect": in_effect,
        "blas_threads_read_by": read_by,
        "blas_threads_enforced_by": ENFORCED_BY_ENV,
        "platform": platform.platform(),
    }
