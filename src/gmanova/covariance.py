"""The covariance cache: per-covariance work done once per distinct matrix.

A power study runs the test many times on the same covariances, and each
run needs the same O(p^3) facts about each of them: the factor that
colours standard draws, and the positive-definiteness verdict of the
gates.  They are cached here, keyed by the shape and the SHA-256 of the
C-contiguous float64 bytes, so an array edited in place is a new key and
never reads a stale entry.  An entry also keeps whether the matrix is
exactly symmetric.  It computes each value on first need,
from the matrix it was looked up with, at one BLAS thread so the bits do
not depend on which caller came first; every array it returns is
read-only.  The cache keeps the CACHE_SIZE most recently used entries.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from .blas import one_blas_thread
from .design import _read_only, positive_definite

CACHE_SIZE = 64

_LOCK = threading.Lock()
_CACHE: OrderedDict = OrderedDict()


class CovarianceEntry:
    """The cached facts about one covariance.  Each method takes a matrix
    with the bytes the entry was looked up with.  One factorization, run on
    the first call only, gives the colouring factor and the one
    positive-definiteness verdict every gate reads: the diagonal of a
    diagonal S, otherwise the eigendecomposition of its symmetric part,
    judged by design.positive_definite.  Concurrent first calls may each
    run it, and get bitwise-equal values."""

    def __init__(self):
        self._factor = None
        self._symmetric = None

    def _factorize(self, S: np.ndarray):
        """(minimum eigenvalue, verdict, symmetric root): the root of a full
        positive definite S, else None."""
        if self._factor is None:
            w, root = np.diag(S), None
            if not np.array_equal(S, np.diag(w)):
                with one_blas_thread():
                    w, V = np.linalg.eigh((S + S.T) / 2.0)
                    if positive_definite(w[0], w[-1]):
                        root = (V * np.sqrt(w)) @ V.T
                        root = _read_only((root + root.T) / 2.0)
            w0 = float(np.min(w))
            self._factor = (w0, positive_definite(w0, np.max(w)), root)
        return self._factor

    def is_positive_definite(self, S: np.ndarray) -> bool:
        return self._factorize(S)[1]

    def is_symmetric(self, S: np.ndarray) -> bool:
        """Whether S equals its transpose exactly, judged on the first call."""
        if self._symmetric is None:
            self._symmetric = bool(np.array_equal(S, S.T))
        return self._symmetric

    def colouring(self, S: np.ndarray):
        """(root, scale) for colouring standard rows with S: its symmetric
        root and None, or for a diagonal S None and the scale of each
        column (None for the identity).  Raises ValueError when S is not
        positive definite."""
        w0, ok, root = self._factorize(S)
        if not ok:
            raise ValueError(
                f"covariance is not positive definite (min eigenvalue {w0:.3e})")
        if root is not None:
            return root, None
        d = np.diag(S)
        return None, None if np.all(d == 1.0) else _read_only(np.sqrt(d))


def lookup(sigmas):
    """(entries, hits, misses): the cache entry of each covariance, and how
    many distinct arrays were found in the cache or added to it.  Each
    distinct array is hashed once."""
    by_id, entries, hits = {}, [], 0
    for S in sigmas:
        if id(S) not in by_id:
            M = np.ascontiguousarray(S, dtype=np.float64)
            key = (M.shape, hashlib.sha256(M).digest())
            with _LOCK:
                entry = _CACHE.get(key)
                if entry is None:
                    entry = _CACHE[key] = CovarianceEntry()
                    if len(_CACHE) > CACHE_SIZE:
                        _CACHE.popitem(last=False)
                else:
                    _CACHE.move_to_end(key)
                    hits += 1
            by_id[id(S)] = entry
        entries.append(by_id[id(S)])
    return entries, hits, len(by_id) - hits


def clear_cache() -> None:
    """Drop every entry, so the next call on any covariance runs cold."""
    with _LOCK:
        _CACHE.clear()
