"""Property test: the diagnostics' a2 ratio, which reads every
fourth-order trace from one Gram matrix of the stacked pair products,
matches the g^4 tuple loop of oracle.a2_ratio_by_tuples on the dense omega.

Designs are one-way (g = 1..5, a hypothesis that may leave groups out or
constrain each group on its own, so some omega blocks vanish), growth-curve (g = 1..5) and 2 x 2 two-way
(every main effect and interaction, or one simple effect, which leaves two
cells inactive), with r <= N or r > N.  Both modes are covered: population
(model_diagnostics on random covariances, against P Sigma P' formed
densely) and plug-in (run_test's diagnostics, against the sample scatters).
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gmanova import (
    DesignSpec,
    GroupedSample,
    GroupError,
    NoBalancingSolution,
    build_projections,
    estimate_variance,
    run_test,
    two_way_manova,
)
from gmanova.oracle import a2_ratio_by_tuples
from gmanova.scenarios import _ones_blocks, polynomial_basis
from gmanova.trace_test import MeanModel, model_diagnostics

REL = 1e-12


@st.composite
def designs(draw):
    kind = draw(st.sampled_from(["one-way", "growth-curve", "two-way"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "two-way":
        sizes = tuple(draw(st.lists(st.integers(5, 8), min_size=4, max_size=4)))
        wide = draw(st.booleans())
        p = draw(st.integers(sum(sizes) + 1, sum(sizes) + 12) if wide
                 else st.integers(2, 8))
        effect = draw(st.sampled_from(["main_a", "main_b", "interaction", "simple"]))
        if effect != "simple":
            return two_way_manova(2, 2, sizes, p, effect=effect).design
        # Factor A at the first level of B: cells (1,1) and (2,1) only.
        return DesignSpec(A=_ones_blocks(sizes), B=np.eye(p),
                          L=np.array([[1.0, 0.0, -1.0, 0.0]]), R=np.eye(p),
                          group_sizes=sizes)
    sizes = tuple(draw(st.lists(st.integers(5, 9), min_size=1, max_size=5)))
    g, N = len(sizes), sum(sizes)
    involved = draw(st.lists(st.integers(0, g - 1), min_size=1, max_size=g,
                             unique=True))
    if draw(st.booleans()):
        # One row per involved group: omega vanishes between groups.
        L = np.eye(g)[involved] * rng.uniform(0.5, 2.0, size=(len(involved), 1))
    else:
        ell = draw(st.integers(1, len(involved)))
        L = np.zeros((ell, g))
        L[:, involved] = rng.normal(size=(ell, len(involved)))
    if kind == "growth-curve":
        p = draw(st.integers(3, 10))
        B = polynomial_basis(p, draw(st.integers(0, 2)))
        R = np.eye(B.shape[1])
    else:
        wide = draw(st.booleans())
        p = draw(st.integers(N + 1, N + 12) if wide else st.integers(2, 8))
        B = np.eye(p)
        R = B[:-1] - B[1:] if p > 2 and draw(st.booleans()) else B
    return DesignSpec(A=_ones_blocks(sizes), B=B, L=L, R=R, group_sizes=sizes)


def _projections(design):
    try:
        return build_projections(design)
    except (NoBalancingSolution, GroupError):
        assume(False)


def _close(got, want):
    if np.isinf(want):
        return got == want
    return abs(got - want) <= REL * abs(want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(designs(), st.integers(0, 2 ** 32 - 1))
def test_population_mode_matches_the_tuple_loop(design, seed):
    proj = _projections(design)
    rng = np.random.default_rng(seed)
    sigmas = []
    for _ in range(design.g):
        F = rng.normal(size=(design.p, design.p))
        sigmas.append(F @ F.T / design.p + np.eye(design.p))
    theta = np.zeros((design.k, design.q))
    diag = model_diagnostics(MeanModel(theta, tuple(sigmas)), design, proj)
    P = proj.compressor
    psis = [P @ S @ P.T for S in sigmas]
    assert _close(diag.a2_ratio, a2_ratio_by_tuples(psis, proj.omega, design.group_sizes))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(designs(), st.integers(0, 2 ** 32 - 1))
def test_plug_in_mode_matches_the_tuple_loop(design, seed):
    proj = _projections(design)
    rng = np.random.default_rng(seed)
    scales = np.repeat(rng.uniform(0.5, 2.0, size=design.g), design.group_sizes)
    X = scales[:, None] * rng.standard_t(6.0, size=(design.N, design.p))
    sample = GroupedSample(X=X, group_sizes=design.group_sizes)
    try:
        report = run_test(sample, design, diagnostics=True)
    except GroupError:
        assume(False)
    est = estimate_variance(sample, design, proj)
    want = a2_ratio_by_tuples(est.s, proj.omega, design.group_sizes)
    assert _close(report.diagnostics.a2_ratio, want)


def test_inactive_blocks_are_left_out():
    """The simple-effect design leaves cells 2 and 4 without omega weight:
    a huge covariance there must not move the ratio."""
    sizes = (5, 6, 7, 5)
    design = DesignSpec(A=_ones_blocks(sizes), B=np.eye(3),
                        L=np.array([[1.0, 0.0, -1.0, 0.0]]), R=np.eye(3),
                        group_sizes=sizes)
    proj = build_projections(design)
    small = [np.eye(3), 1e6 * np.eye(3), 2.0 * np.eye(3), 1e6 * np.eye(3)]
    model = MeanModel(np.zeros((4, 3)), tuple(small))
    got = model_diagnostics(model, design, proj).a2_ratio
    assert got == a2_ratio_by_tuples(small, proj.omega, sizes)
    assert got < 1.0


def test_an_asymmetric_covariance_is_read_as_its_symmetric_part():
    """A covariance whose symmetric part is positive definite passes every
    gate; the diagnostics then read the traces of the symmetric parts, as
    sigma_full does, not the Gram of the raw products."""
    sizes = (6, 7, 8)
    design = DesignSpec(A=_ones_blocks(sizes), B=np.eye(4),
                        L=np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]),
                        R=np.eye(4), group_sizes=sizes)
    proj = build_projections(design)
    rng = np.random.default_rng(5)
    sigmas = []
    for _ in sizes:
        F, K = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        sigmas.append(F @ F.T / 4 + np.eye(4) + (K - K.T))
    model = MeanModel(np.zeros((3, 4)), tuple(sigmas))
    got = model_diagnostics(model, design, proj).a2_ratio
    P = proj.compressor
    parts = [(P @ S @ P.T + (P @ S @ P.T).T) / 2 for S in sigmas]
    assert _close(got, a2_ratio_by_tuples(parts, proj.omega, sizes))
    raw = a2_ratio_by_tuples([P @ S @ P.T for S in sigmas], proj.omega, sizes)
    assert not _close(got, raw)
    symmetric = MeanModel(model.theta, tuple((S + S.T) / 2 for S in sigmas))
    assert _close(got, model_diagnostics(symmetric, design, proj).a2_ratio)
