"""The thread count of numpy's OpenBLAS.

OpenBLAS keeps one process-wide thread count, and the bits of its results
depend on it.  Work whose result is reused or compared across calls (a
Monte Carlo run, a cached covariance root, a cached design Gram) runs
inside `one_blas_thread`, so its bits do not depend on the caller's count.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np


@lru_cache(maxsize=1)
def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when no such library or function is found."""
    names = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
             ("openblas_get_num_threads", "openblas_set_num_threads"))
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in names:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_BLAS_LOCK = threading.Lock()
_blas_holds = 0
_blas_saved = 1


@contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread while the block runs.

    OpenBLAS keeps one process-wide count: threaded GEMMs from several
    workers queue on its shared threads, and its results depend on the
    count.  Overlapping holds (nested, or from concurrent calls) share one
    pin; the last to leave restores the count that the first found.
    """
    global _blas_holds, _blas_saved
    api = openblas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    with _BLAS_LOCK:
        if _blas_holds == 0:
            _blas_saved = get()
            set_(1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_holds -= 1
            if _blas_holds == 0:
                set_(_blas_saved)
