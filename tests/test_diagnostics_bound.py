"""The diagnostics' a2 ratio through its Cauchy-Schwarz bound.

assumption_diagnostics takes the largest fourth-order trace as the largest
tr(Psi_a^4) over groups with an active diagonal omega block, and evaluates
a tuple exactly only when its bound (q_a q_b q_c q_d)^(1/4) beats that.
Here the per-group covariances span six orders of magnitude and a random
subset of groups has no weight within the group, so some tuples must be
evaluated and found larger, others evaluated and found smaller, and the
rest pruned; the ratio must match the g^4 tuple loop of the oracle.
"""

import tracemalloc
import warnings

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from gmanova import GroupedSample, estimate_variance, run_test, two_way_manova
from gmanova.oracle import a2_ratio_by_tuples
from gmanova.trace_test import assumption_diagnostics

from dense_forms import one_row_classes

REL = 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_scaled_covariances_with_inactive_diagonals_match_the_tuple_loop(sizes, r, seed):
    rng = np.random.default_rng(seed)
    g, N = len(sizes), sum(sizes)
    group = np.repeat(np.arange(g), sizes)
    W = rng.normal(size=(N, N))
    omega = W + W.T
    same = group[:, None] == group[None, :]
    inactive = rng.random(g) < 0.5
    omega[same & inactive[group][:, None]] = 0.0
    cut = np.triu(rng.random((g, g)) < 0.2, 1)
    cut = cut | cut.T
    omega[cut[group[:, None], group[None, :]]] = 0.0
    weights = one_row_classes(omega, sizes)
    psis = []
    for _ in range(g):
        F = rng.normal(size=(r, r))
        psis.append(10.0 ** rng.uniform(-3.0, 3.0) * (F @ F.T))
    try:
        got = assumption_diagnostics(psis, weights).a2_ratio
    except ValueError:  # every off-diagonal weight vanishes
        assume(False)
    want = a2_ratio_by_tuples(psis, weights.expand(weights.omega), sizes)
    assert type(got) is float
    if np.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= REL * abs(want)
    active = weights.block_sums > 0.0
    event("an inactive diagonal in an active pair"
          if np.any(~np.diag(active) & active.any(axis=1)) else "every diagonal active")


def test_paper_regime_diagnostics_stay_small():
    """The 2 x 3 two-way interaction with cells of 10 at p = 1000 holds the
    six r x r scatters and one square at a time, not a stack of every
    pair product (336 MB when the diagnostics stacked them)."""
    p = 1000
    design = two_way_manova(2, 3, (10,) * 6, p, effect="interaction").design
    design.projections
    X = np.random.default_rng(0).standard_normal((design.N, p))
    sample = GroupedSample(X=X, group_sizes=design.group_sizes)
    tracemalloc.start()
    try:
        report = run_test(sample, design, diagnostics=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < report.diagnostics.a2_ratio < 1.0
    assert peak < 100e6, peak / 1e6


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 3), st.integers(2, 12), st.integers(-500, 500),
       st.integers(0, 2 ** 32 - 1))
def test_a2_ratio_is_bitwise_scale_free(b, p, k, seed):
    """Data times 2^k give the k = 0 a2_ratio bit for bit, with warnings as
    errors, wherever the scatters stay normal floats: psis beyond the
    window are scaled back by one power of two before any fourth power."""
    design = two_way_manova(2, b, (5,) * (2 * b), p, "interaction").design
    X = np.random.default_rng(seed).standard_normal((design.N, p))
    scaled = np.ldexp(X, k)
    tiny = np.finfo(float).tiny
    assume(np.all(np.isfinite(scaled)))
    sample = GroupedSample(scaled, design.group_sizes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = run_test(GroupedSample(X, design.group_sizes), design, diagnostics=True)
        try:
            run_test(sample, design)
        except RuntimeWarning:
            assume(False)  # the statistic itself leaves the float range
        got = run_test(sample, design, diagnostics=True)
        scatters = estimate_variance(sample, design).s
    values = np.abs(np.concatenate([S.ravel() for S in scatters]))
    assume(np.all(np.isfinite(values)) and np.all(values[values > 0] >= tiny))
    event("scaled" if abs(2 * k) > 200 else "inside the window")
    assert got.diagnostics.a2_ratio == want.diagnostics.a2_ratio
