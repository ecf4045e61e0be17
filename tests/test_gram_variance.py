"""Property tests: the data step of the variance estimate, which centres the
rows once and reads the g x g matrix of tr(S_i S_j) from the unscaled r x r
products of the centred rows when r <= N and from their N x N Gram matrix
when r > N, agrees with the per-group scatter formulas (a2_hat, b_hat) and
the dense sigma0_hat; the scatters themselves are formed only when read.

Designs have 2-3 groups of 4-8 rows, an optional within-group covariate,
an optional all-zero design block, and p either above N (Gram form) or at
most N (scatter form), with r = p or r = p - 1.
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
    a2_hat,
    b_hat,
    build_projections,
    estimate_variance,
    estimators,
    group_residual_scatter,
    one_way_manova,
    sigma0_hat,
    v_hat,
)
REL = 1e-12


@st.composite
def cases(draw):
    sizes = draw(st.lists(st.integers(4, 8), min_size=2, max_size=3))
    N = sum(sizes)
    gram = draw(st.booleans())
    p = draw(st.integers(N + 2, N + 40) if gram else st.integers(2, N))
    reduced = draw(st.booleans())
    covariate = draw(st.booleans())
    zero_block = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    g = len(sizes)
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
    R = np.eye(p)[:-1] - np.eye(p)[1:] if reduced else np.eye(p)
    design = DesignSpec(A=A, B=np.eye(p), L=rng.normal(size=(1, k)), R=R,
                        group_sizes=tuple(sizes))
    scales = np.repeat(rng.uniform(0.5, 2.0, size=g), sizes)[:, None]
    X = A @ rng.normal(size=(k, p)) + scales * rng.standard_normal((N, p))
    return design, X


def _a2_scale(S, Q, tau, m):
    """Sum of the absolute terms of the a2 estimate: its rounding scale."""
    t1, t2, _ = tau
    tr_s = float(np.trace(S))
    return (abs(m * m * t2 - t1 * t1) * float(np.sum(S * S))
            + abs(m * t2 - t1 * t1) * tr_s * tr_s
            + abs(m - 1.0) * t1 * Q) / abs(m * tau[2])


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_data_step_matches_scatter_formulas(case):
    design, X = case
    try:
        proj = build_projections(design)
        tau = design.tau
    except (NoBalancingSolution, GroupError):
        assume(False)
    est = estimate_variance(GroupedSample(X, design.group_sizes), design)

    g = design.g
    scatters, a2, scale = [], np.empty(g), np.empty(g)
    for i in range(g):
        sl = design.group_slice(i)
        S, Q, k = group_residual_scatter(X[sl], design.A_block(i), proj.compressor)
        m = design.group_sizes[i] - k
        a2[i] = a2_hat(S, Q, tau[i], design.group_sizes[i], k)
        scale[i] = _a2_scale(S, Q, tau[i], m)
        scatters.append(S)
        assert est.k[i] == k
    b = np.zeros((g, g))
    for i in range(g):
        for j in range(i + 1, g):
            b[i, j] = b[j, i] = b_hat(scatters[i], scatters[j])
    norms = np.sqrt([b_hat(S, S) for S in scatters])

    assert np.all(np.abs(est.a2 - a2) <= REL * scale)
    assert np.all(np.abs(est.b - b) <= REL * np.outer(norms, norms))
    assert np.all(np.diag(est.b) == 0.0)
    omega = proj.omega
    sigma0 = sigma0_hat(omega, v_hat(a2, b, design.group_sizes))
    terms = 2.0 * float(np.sum(omega * omega
                               * v_hat(scale, np.outer(norms, norms), design.group_sizes)))
    assert abs(est.sigma0_sq - sigma0) <= REL * terms
    for S_est, S in zip(est.s, scatters):
        assert np.allclose(S_est, S, rtol=0.0, atol=REL * max(1.0, np.max(np.abs(S))))


def test_wide_design_takes_the_gram_form(monkeypatch):
    """With r > N no r x r scatter is formed unless s is read."""
    design = one_way_manova((5, 6), 40).design
    X = np.random.default_rng(4).standard_normal((design.N, design.p))
    calls = []
    original = estimators.group_residual_scatter

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "group_residual_scatter", counted)
    est = estimate_variance(GroupedSample(X, design.group_sizes), design)
    assert calls == []
    assert len(est.s) == 2 and est.s[0].shape == (40, 40)
    assert len(calls) == 2
    assert est.s is est.s
    assert np.max(np.abs(est.a2 - [a2_hat(S, q, t, n, 1) for S, q, t, n
                                   in zip(est.s, est.q, design.tau, design.group_sizes)])) \
        <= 1e-10 * np.max(np.abs(est.a2))


def test_narrow_design_forms_the_scatters_on_read(monkeypatch):
    """With r <= N the estimate comes from one centring pass too: no r x r
    scatter is formed by group_residual_scatter unless s is read."""
    design = one_way_manova((9, 11), 6).design
    X = np.random.default_rng(5).standard_normal((design.N, design.p))
    calls = []
    original = estimators.group_residual_scatter

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "group_residual_scatter", counted)
    est = estimate_variance(GroupedSample(X, design.group_sizes), design)
    assert calls == []
    assert len(est.s) == 2 and est.s[0].shape == (6, 6)
    assert len(calls) == 2
    assert est.s is est.s
    assert np.max(np.abs(est.a2 - [a2_hat(S, q, t, n, 1) for S, q, t, n
                                   in zip(est.s, est.q, design.tau, design.group_sizes)])) \
        <= 1e-12 * np.max(np.abs(est.a2))


@pytest.mark.parametrize("p", [6, 30])
def test_k_and_q_match_the_groups(p):
    design = one_way_manova((5, 7), p).design
    proj = build_projections(design)
    X = np.random.default_rng(p).standard_normal((design.N, p))
    est = estimate_variance(GroupedSample(X, design.group_sizes), design)
    for i in range(design.g):
        sl = design.group_slice(i)
        _, Q, k = group_residual_scatter(X[sl], design.A_block(i), proj.compressor)
        assert est.k[i] == k == 1
        assert est.q[i] == pytest.approx(Q, rel=1e-13)
