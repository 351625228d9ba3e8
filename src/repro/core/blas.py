"""One BLAS thread per owned worker process.

OpenBLAS sizes its thread pool from the environment (or the core count)
when numpy first loads it, and a forked process inherits that size.  The
process-engine workers, the service's seat processes and the elastic
staging workers are each one of several processes sharing the host's
cores, so each asks the loaded library for a single thread when it
starts: left at one thread per core, a 2-worker ``KMeans`` run on a
2-core host took 30-53 ms instead of 9.3 ms, its BLAS threads contending
with the other worker's.

The entry points are looked up through numpy's core extension module
with ``ctypes``: a symbol lookup on a loaded library also searches the
libraries it links, which is where numpy's OpenBLAS sits.  Where numpy
links another BLAS, or the platform's lookup does not search
dependencies, nothing happens.
"""

from __future__ import annotations

import ctypes

__all__ = ["blas_threads", "one_blas_thread"]

#: (setter, getter) entry points: numpy's wheels bundle scipy-openblas
#: (ILP64, suffixed names), a system build links plain OpenBLAS.
_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas():
    """The linked OpenBLAS's (setter, getter) pair, or ``None``."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)  # already loaded: the same handle
    except OSError:
        return None
    for set_name, get_name in _ENTRY_POINTS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def one_blas_thread() -> None:
    """Run this process's BLAS calls on one thread (no-op without OpenBLAS)."""
    entry = _openblas()
    if entry is not None:
        entry[0](1)


def blas_threads() -> int | None:
    """The loaded OpenBLAS's thread count, or ``None`` without one."""
    entry = _openblas()
    return None if entry is None else entry[1]()
