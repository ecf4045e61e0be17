"""One build per design: every caller reads DesignSpec.projections.

Over random one-way, growth-curve, two-way, profile and covariate designs
(a within-group covariate on every row, so each row is its own class):
the cached build equals a fresh build_projections; an engine, run_test,
a calibration, sigma_full, model_diagnostics and monte_carlo on one design
run one build, one SVD of A and one SVD of each group's block, and compute
the tau coefficients once per group; and the tau coefficients read from the
group bases match the projector route.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gmanova import (
    DesignError,
    DesignSpec,
    ErrorDistribution,
    GroupError,
    GroupedSample,
    MeanModel,
    NoBalancingSolution,
    TraceTestEngine,
    build_projections,
    calibrate_signal_ray,
    canonical_direction,
    estimate_variance,
    growth_curve,
    model_diagnostics,
    monte_carlo,
    numerical_rank,
    one_way_manova,
    profile_parallelism,
    projector,
    run_test,
    sigma_full,
    statistic_t,
    tau_coefficients,
    two_way_manova,
)
from gmanova import design as design_module
from gmanova import estimators
from gmanova.scenarios import EFFECTS

TOL = 1e-12


@st.composite
def cases(draw):
    """(design, X): a design of one of five layouts and a data matrix."""
    layout = draw(st.sampled_from(("one-way", "growth", "two-way", "profile",
                                   "covariate")))
    p = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if layout == "two-way":
        b = draw(st.integers(2, 3))
        sizes = draw(st.lists(st.integers(4, 7), min_size=2 * b, max_size=2 * b))
        design = two_way_manova(2, b, sizes, p, draw(st.sampled_from(EFFECTS))).design
    else:
        sizes = draw(st.lists(st.integers(4, 9), min_size=2, max_size=3))
        if layout == "growth":
            design = growth_curve(sizes, p, draw(st.integers(0, p - 1))).design
        elif layout == "profile":
            design = profile_parallelism(sizes, p).design
        else:
            design = one_way_manova(sizes, p).design
    if layout == "covariate":
        design = DesignSpec(A=np.hstack([design.A, rng.normal(size=(design.N, 1))]),
                            B=design.B, L=np.hstack([design.L, np.zeros((design.ell, 1))]),
                            R=design.R, group_sizes=design.group_sizes)
    X = rng.standard_normal((design.N, p))
    return design, X


def _close(got, want, scale=0.0):
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    assert gap <= TOL * max(scale, float(np.max(np.abs(want), initial=0.0)))


def _copy(design) -> DesignSpec:
    return DesignSpec(A=design.A, B=design.b_form, L=design.L, R=design.r_form,
                      group_sizes=design.group_sizes)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_cached_build_equals_a_fresh_build(case):
    design, X = case
    try:
        cached = design.projections
    except (NoBalancingSolution, GroupError):
        assume(False)
    assert design.projections is cached
    copy = _copy(design)
    fresh = build_projections(copy)
    _close(design.hypothesis_root, copy.hypothesis_root)
    _close(design.a_basis, copy.a_basis)
    _close(cached.d, fresh.d)
    _close(cached.e, fresh.e, float(np.max(np.abs(fresh.d))))
    for name in ("pi_a", "pi_h", "omega"):
        _close(getattr(cached.weights, name), getattr(fresh.weights, name))
    _close(cached.compressor, fresh.compressor)
    _close(cached.h_diag, fresh.h_diag)
    assert not cached.weights.omega.flags.writeable and not cached.d.flags.writeable

    _close(cached.weights.block_sums, fresh.weights.block_sums)

    try:
        design.tau
    except GroupError:
        assume(False)
    sample = GroupedSample(X, design.group_sizes)
    sigma0 = estimate_variance(sample, design).sigma0_sq
    want_sigma0 = estimate_variance(sample, _copy(design)).sigma0_sq
    t = statistic_t(X, cached.compressor, cached.factors)
    want_t = statistic_t(X, fresh.compressor, fresh.factors)
    _close(sigma0, want_sigma0)
    _close(t, want_t, np.sqrt(abs(want_sigma0)))


@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_every_caller_shares_one_build_and_one_svd(case):
    """Engine, run_test, calibration, sigma_full, model_diagnostics and
    monte_carlo on one design: one build_projections, one SVD of A and one
    SVD of each group's block."""
    drawn, X = case
    built, svds = [], []
    build, svd = design_module.build_projections, np.linalg.svd

    def recording_build(design):
        built.append(build(design))
        return built[-1]

    def recording_svd(a, *args, **kwargs):
        svds.append(np.array(a, dtype=float))
        return svd(a, *args, **kwargs)

    p = drawn.p
    sigmas = tuple(np.diag(np.linspace(1.0, 1.0 + i, p)) for i in range(drawn.g))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design_module, "build_projections", recording_build)
        mp.setattr(np.linalg, "svd", recording_svd)
        design = _copy(drawn)
        try:
            engine = TraceTestEngine(design)
            run_test(GroupedSample(X, design.group_sizes), design, diagnostics=True)
        except (NoBalancingSolution, GroupError):
            assume(False)
        theta = calibrate_signal_ray(design, canonical_direction(design), sigmas, 1.5)
        model = MeanModel(theta, sigmas)
        sigma_full(model, design)
        model_diagnostics(model, design)
        monte_carlo(design, model, ErrorDistribution.gaussian(), reps=100, seed=1,
                    threads=1)

    def count(M):
        return sum(a.shape == M.shape and np.array_equal(a, M) for a in svds)

    assert built == [engine.projections]
    assert count(design.A) == 1
    assert [count(design.A_block(i)) for i in range(design.g)] == [1] * design.g


@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example((growth_curve((30,) * 4, 12, 2).design,
          np.random.default_rng(0).standard_normal((120, 12))))
def test_every_caller_shares_one_variance_design(case):
    """The same run calls tau_coefficients once per group: the engine,
    run_test and monte_carlo read DesignSpec.tau and the block sums of
    its class weights, read-only."""
    drawn, X = case
    calls = []
    tau = estimators.tau_coefficients

    def counted(*args, **kwargs):
        calls.append(kwargs.get("group"))
        return tau(*args, **kwargs)

    p = drawn.p
    sigmas = tuple(np.diag(np.linspace(1.0, 1.0 + i, p)) for i in range(drawn.g))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "tau_coefficients", counted)
        design = _copy(drawn)
        try:
            TraceTestEngine(design)
            run_test(GroupedSample(X, design.group_sizes), design, diagnostics=True)
        except (NoBalancingSolution, GroupError):
            assume(False)
        theta = calibrate_signal_ray(design, canonical_direction(design), sigmas, 1.5)
        model = MeanModel(theta, sigmas)
        sigma_full(model, design)
        model_diagnostics(model, design)
        monte_carlo(design, model, ErrorDistribution.gaussian(), reps=100, seed=1,
                    threads=1)

    assert calls == list(range(design.g))
    assert not design.tau.flags.writeable
    assert not design.projections.weights.block_sums.flags.writeable


def _block_design(sizes, kinds, k, seed) -> DesignSpec:
    """A design whose group blocks are all-zero, rank one ("deficient"),
    random ("full") or one indicator column."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n, kind in zip(sizes, kinds):
        M = np.zeros((n, k))
        if kind == "deficient":
            M = np.outer(rng.normal(size=n), rng.normal(size=k))
        elif kind == "full":
            M = rng.normal(size=(n, k))
        elif kind == "indicator":
            M[:, rng.integers(k)] = 1.0
        blocks.append(M)
    return DesignSpec(A=np.vstack(blocks), B=np.eye(2), L=np.eye(k)[:1],
                      R=np.eye(2), group_sizes=tuple(sizes))


@st.composite
def block_designs(draw):
    k = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(k + 2, 8), min_size=2, max_size=4))
    kinds = draw(st.lists(st.sampled_from(("zero", "deficient", "full", "indicator")),
                          min_size=len(sizes), max_size=len(sizes)))
    try:
        return _block_design(sizes, kinds, k, draw(st.integers(0, 2 ** 32 - 1)))
    except DesignError:  # A is not of full rank k
        assume(False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_designs())
@example(_block_design((5, 6, 7), ("zero", "deficient", "full"), 3, 0))
def test_tau_from_the_basis_matches_the_projector_route(design):
    """DesignSpec.tau reads k_i and the projector from one SVD of each
    block; the reference is tau_coefficients of projector(A_i) (zero for an
    all-zero block) at the rank numerical_rank gives."""
    try:
        tau = design.tau
    except GroupError:
        assume(False)
    for i, n in enumerate(design.group_sizes):
        A_i = design.A_block(i)
        k_i = numerical_rank(A_i)
        assert design.group_bases[i].shape[1] == k_i
        P = projector(A_i) if np.any(A_i) else np.zeros((n, n))
        want = np.array(tau_coefficients(P, n, k_i, group=i))
        _close(tau[i], want)
