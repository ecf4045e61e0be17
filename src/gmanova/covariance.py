"""The covariance cache: per-covariance work done once per distinct matrix.

A power study runs the test many times on the same covariances, and each
run needs the same O(p^3) facts about each of them: its spectrum, the
positive-definiteness verdict of the gates, and the factor that colours
standard draws.  They are cached here.  An entry is keyed by the shape and
the bytes of the diagonal, and a matrix with that key finds it only when
its bytes equal the entry's own: a read-only copy for a full matrix,
compared a few rows at a time so that no p x p temporary is made, and for
a diagonal matrix (every off-diagonal entry zero) the diagonal alone.  So
an array edited in place finds a new entry and never reads a stale one.
An entry keeps the eigenvalues w and eigenvectors V of its one eigh, and
forms the symmetric root V diag(sqrt(w)) V' only when a caller reads it.
It also keeps whether the matrix is exactly symmetric.  It computes each
value on first need, from the matrix it was looked up with, at one BLAS
thread so the bits do not depend on which caller came first; every array
it returns is read-only.  The cache keeps the CACHE_SIZE most recently
used entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .blas import one_blas_thread
from .design import _read_only, positive_definite

CACHE_SIZE = 64
BLOCK_ENTRIES = 1 << 15  # entries of a matrix compared at a time

_LOCK = threading.Lock()
_CACHE: OrderedDict = OrderedDict()


class CovarianceEntry:
    """The cached facts about one covariance.  Each method takes a matrix
    with the bytes the entry was looked up with.  One factorization, run on
    the first call only, gives the spectrum and the one positive-definiteness
    verdict every gate reads: the diagonal of a diagonal S, otherwise the
    eigendecomposition of its symmetric part, judged by
    design.positive_definite.  The symmetric root is formed from it on the
    first read of colouring.  Concurrent first calls may each run either
    step, and get bitwise-equal values."""

    def __init__(self, S: np.ndarray, key: tuple):
        self.key = key
        diagonal = np.count_nonzero(S) == np.count_nonzero(np.diagonal(S))
        self._copy = None if diagonal else _read_only(S.copy())
        self._factor = None
        self._root = None
        self._symmetric = None

    def holds(self, S: np.ndarray) -> bool:
        """Whether S, a float64 matrix with the entry's key, has its bytes."""
        if self._copy is None:  # the key holds the diagonal
            return np.count_nonzero(S) == np.count_nonzero(np.diagonal(S))
        step = max(1, BLOCK_ENTRIES // max(1, S.shape[1]))
        return all(np.array_equal(np.ascontiguousarray(S[i:i + step]).view(np.uint64),
                                  self._copy[i:i + step].view(np.uint64))
                   for i in range(0, S.shape[0], step))

    def _factorize(self, S: np.ndarray):
        """(w, V, verdict): the spectrum (see spectrum) and the
        positive-definiteness verdict, computed on the first call."""
        if self._factor is None:
            w, V = np.diag(S).copy(), None
            if self._copy is not None:
                with one_blas_thread():
                    w, V = np.linalg.eigh((S + S.T) / 2.0)
                V = _read_only(V)
            self._factor = (_read_only(w), V, positive_definite(np.min(w), np.max(w)))
        return self._factor

    def is_positive_definite(self, S: np.ndarray) -> bool:
        return self._factorize(S)[2]

    def is_symmetric(self, S: np.ndarray) -> bool:
        """Whether S equals its transpose exactly, judged on the first call."""
        if self._symmetric is None:
            self._symmetric = bool(np.array_equal(S, S.T))
        return self._symmetric

    def spectrum(self, S: np.ndarray):
        """(w, V): the eigenvalues of S's symmetric part, ascending, and its
        orthonormal eigenvectors in the columns of V; for a diagonal S its
        diagonal and None.  Raises ValueError when S is not positive
        definite."""
        w, V, ok = self._factorize(S)
        if not ok:
            raise ValueError(
                f"covariance is not positive definite (min eigenvalue {np.min(w):.3e})")
        return w, V

    def colouring(self, S: np.ndarray):
        """(root, scale) for colouring standard rows with S: its symmetric
        root and None, or for a diagonal S None and the scale of each
        column (None for the identity).  Raises ValueError when S is not
        positive definite."""
        w, V = self.spectrum(S)
        if V is None:
            return None, None if np.all(w == 1.0) else _read_only(np.sqrt(w))
        if self._root is None:
            with one_blas_thread():
                root = (V * np.sqrt(w)) @ V.T
            self._root = _read_only((root + root.T) / 2.0)
        return self._root, None


def lookup(sigmas):
    """(entries, hits, misses): the cache entry of each covariance, and how
    many distinct arrays were found in the cache or added to it.  Each
    distinct array is compared once."""
    by_id, entries, hits = {}, [], 0
    for S in sigmas:
        if id(S) not in by_id:
            M = np.asarray(S, dtype=np.float64)
            key = (M.shape, np.diagonal(M).tobytes())
            with _LOCK:
                entry = next((e for e in _CACHE.values() if e.key == key and e.holds(M)),
                             None)
                if entry is None:
                    entry = CovarianceEntry(M, key)
                    _CACHE[id(entry)] = entry
                    if len(_CACHE) > CACHE_SIZE:
                        _CACHE.popitem(last=False)
                else:
                    _CACHE.move_to_end(id(entry))
                    hits += 1
            by_id[id(S)] = entry
        entries.append(by_id[id(S)])
    return entries, hits, len(by_id) - hits


def clear_cache() -> None:
    """Drop every entry, so the next call on any covariance runs cold."""
    with _LOCK:
        _CACHE.clear()
