"""How the covariance cache finds an entry without hashing the matrix.

An entry is keyed by the shape and the diagonal's bytes and found only by
a matrix whose bytes equal its own: its read-only copy for a full matrix,
the diagonal alone for a diagonal one.  So matrices that share a diagonal
keep distinct entries, an array edited in place after a lookup gets a new
entry, and a hit makes no p x p temporary.
"""

import tracemalloc

import numpy as np
import pytest

from gmanova import CovarianceSpec, covariance


@pytest.fixture(autouse=True)
def cold_cache():
    covariance.clear_cache()
    yield
    covariance.clear_cache()


def test_editing_an_array_in_place_gives_it_a_new_entry():
    for S in (CovarianceSpec(kind="ar1", rho=0.5).matrix(6), np.diag(np.arange(1.0, 7.0))):
        (before,), _, _ = covariance.lookup([S])
        S[2, 3] += 0.25
        (after,), hits, misses = covariance.lookup([S])
        assert after is not before and (hits, misses) == (0, 1)
        S[2, 3] -= 0.25
        (again,), hits, _ = covariance.lookup([S])
        assert again is before and hits == 1


def test_matrices_sharing_a_diagonal_keep_their_own_entries():
    p = 5
    mats = [np.eye(p), CovarianceSpec(kind="ar1", rho=0.5).matrix(p),
            CovarianceSpec(kind="compound_symmetry", rho=0.3).matrix(p)]
    entries, _, misses = covariance.lookup(mats)
    assert misses == 3 and len({id(e) for e in entries}) == 3
    copies, hits, _ = covariance.lookup([M.copy() for M in reversed(mats)])
    assert hits == 3 and copies == entries[::-1]
    assert entries[0].colouring(mats[0]) == (None, None)
    assert entries[1].spectrum(mats[1])[1] is not None


def test_signed_zeros_and_layouts():
    """Bytes decide a match, so -0.0 off the diagonal of a full matrix is a
    new entry; the matrix in column-major layout has its values, and finds
    its entry."""
    S = CovarianceSpec(kind="ar1", rho=0.5).matrix(6)
    S[0, 5] = S[5, 0] = 0.0
    (entry,), _, _ = covariance.lookup([S])
    T = S.copy()
    T[0, 5] = -0.0
    (other,), _, _ = covariance.lookup([T])
    assert other is not entry
    (view,), hits, _ = covariance.lookup([np.asfortranarray(S)])
    assert view is entry and hits == 1


def test_a_hit_makes_no_full_size_temporary():
    p = 400
    S = CovarianceSpec(kind="ar1", rho=0.5).matrix(p)
    D = np.diag(np.linspace(1.0, 2.0, p))
    covariance.lookup([S, D])
    tracemalloc.start()
    try:
        (_, _), hits, _ = covariance.lookup([S, D])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == 2
    assert peak < S.nbytes / 4, peak
