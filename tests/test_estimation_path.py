"""Property tests: run_test, estimate_variance and TraceTestEngine give the
same numbers over random designs, and T matches the dense oracle.

Designs have groups of at least 4 rows, an optional within-group covariate
column, an optional all-zero design block, and within-designs (B, R) that
are the identity, square but not the identity (the compressor is skipped),
or reduced (first differences, r < p).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gmanova import (
    DesignSpec,
    GroupError,
    GroupedSample,
    NoBalancingSolution,
    TraceTestEngine,
    estimate_variance,
    run_test,
)
from gmanova.oracle import t_by_decomposition


@st.composite
def cases(draw):
    sizes = draw(st.lists(st.integers(4, 9), min_size=2, max_size=3))
    p = draw(st.integers(2, 5))
    covariate = draw(st.booleans())
    zero_block = draw(st.booleans())
    within = draw(st.sampled_from(("identity", "square", "reduced")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    g, N = len(sizes), sum(sizes)
    offs = np.concatenate(([0], np.cumsum(sizes)))
    columns = []
    for i in range(g - 1 if zero_block else g):
        col = np.zeros(N)
        col[offs[i]:offs[i + 1]] = 1.0
        columns.append(col)
    if covariate:
        col = np.zeros(N)
        col[:sizes[0]] = rng.normal(size=sizes[0])
        columns.append(col)
    A = np.column_stack(columns)
    k = A.shape[1]
    L = rng.normal(size=(draw(st.integers(1, k)), k))
    if within == "identity":
        B, R = np.eye(p), np.eye(p)
    elif within == "square":
        B = np.eye(p) + 0.3 * rng.normal(size=(p, p)) / np.sqrt(p)
        R = np.eye(p) + 0.3 * rng.normal(size=(p, p)) / np.sqrt(p)
    else:
        B = np.eye(p)
        R = np.eye(p)[:-1] - np.eye(p)[1:]
    design = DesignSpec(A=A, B=B, L=L, R=R, group_sizes=tuple(sizes))
    theta = rng.normal(size=(k, p))
    scales = np.repeat(rng.uniform(0.5, 2.0, size=g), sizes)[:, None]
    X = A @ theta @ B.T + scales * rng.standard_normal((N, p))
    return design, X


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_estimation_paths_agree(case):
    design, X = case
    sample = GroupedSample(X, design.group_sizes)
    try:
        report = run_test(sample, design)
        engine = TraceTestEngine(design)
    except (NoBalancingSolution, GroupError):
        assume(False)

    scale = max(abs(report.t_stat), np.sqrt(max(report.sigma0_sq_hat, 0.0)))
    assert report.t_stat == pytest.approx(t_by_decomposition(X, design),
                                          rel=0.0, abs=1e-8 * scale)

    t, a2, b, sigma0_sq = engine.statistics(X)
    est = estimate_variance(sample, design)
    assert np.array_equal(a2, est.a2) and np.array_equal(b, est.b)
    assert sigma0_sq == est.sigma0_sq

    assert report.z == engine.test_matrix(X).z
