"""The covariance cache: per-covariance work done once per distinct matrix.

A power study runs the test many times on the same covariances, and each
run needs the same O(p^3) facts about each of them: the factor that
colours standard draws, and the positive-definiteness verdicts of the
gates.  They are cached here, keyed by the shape and the SHA-256 of the
C-contiguous float64 bytes, so an array edited in place is a new key and
never reads a stale entry.  An entry computes each value on first need,
from the matrix it was looked up with, at one BLAS thread so the bits do
not depend on which caller came first; every array it returns is
read-only.  The cache keeps the CACHE_SIZE most recently used entries.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from math import sqrt

import numpy as np

from .blas import one_blas_thread
from .design import _read_only

CACHE_SIZE = 64

_LOCK = threading.Lock()
_CACHE: OrderedDict = OrderedDict()


class CovarianceEntry:
    """The cached facts about one covariance.  Each method takes a matrix
    with the bytes the entry was looked up with and computes its value on
    the first call only; concurrent first calls may each compute it, and
    get bitwise-equal values."""

    def __init__(self):
        self._eig = None
        self._colouring = None
        self._cholesky = None

    def symmetric_root(self, S: np.ndarray):
        """(minimum eigenvalue, symmetric square root) through the
        eigendecomposition; the root is None unless S is positive definite."""
        if self._eig is None:
            with one_blas_thread():
                w, V = np.linalg.eigh((S + S.T) / 2.0)
                root = None
                if w[0] > 0.0:
                    root = (V * np.sqrt(w)) @ V.T
                    root = _read_only((root + root.T) / 2.0)
            self._eig = (float(w[0]), root)
        return self._eig

    def colouring(self, S: np.ndarray):
        """(root, scale) for colouring standard rows with S: its symmetric
        root and None, or for a diagonal S None and the scale (a number or
        one per column; None for the identity).  Raises ValueError when a
        full S is not positive definite."""
        if self._colouring is None:
            d = np.diag(S).copy()
            if not np.array_equal(S, np.diag(d)):
                w0, root = self.symmetric_root(S)
                if root is None:
                    raise ValueError(
                        f"covariance is not positive definite (min eigenvalue {w0:.3e})")
                self._colouring = (root, None)
            elif d.size and np.all(d == d[0]):
                self._colouring = (None, None if d[0] == 1.0 else sqrt(float(d[0])))
            else:
                self._colouring = (None, _read_only(np.sqrt(d)))
        return self._colouring

    def cholesky_ok(self, S: np.ndarray) -> bool:
        """Whether the symmetric part of S has a Cholesky factor."""
        if self._cholesky is None:
            try:
                with one_blas_thread():
                    np.linalg.cholesky((S + S.T) / 2.0)
                self._cholesky = True
            except np.linalg.LinAlgError:
                self._cholesky = False
        return self._cholesky


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
