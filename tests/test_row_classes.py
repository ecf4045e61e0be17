"""Property tests: the design built between row classes matches the dense
N x N build over random designs.

The reference solves the balancing system on the N x N (I - pi_a) o
(I - pi_a) with oracle.dense_min_norm_solve and applies build_omega, with
every row its own class, to the dense projector(A) and
hypothesis_projector.  The block sums and diagnostics of the dense omega
are read with it held as N one-row classes (dense_forms.one_row_classes).
Compared within 1e-10 relative: the balancing weights d, the residuals e,
the relative residual, the lazily expanded omega, the omega o omega block
sums, every field of the population and plug-in diagnostics, and
sigma_full.  A design without
balancing weights must raise the same exception on both routes.  The
mean's one route, mean_rows, gives the dense omega M and tr(M' omega M)
within 1e-12 of their terms.

Layouts: one-way, two-way, profile and growth designs; an intercept-only A
shared by two groups; a continuous covariate (one class per row); a
two-row group (singular (I - pi_a) o (I - pi_a)); a within-group 0/1
covariate in alternating order, so that classes are not contiguous; and a
one-group regression on 2 to 6 rows, which has no residual (2 rows), no
balancing weights (3 or 4 rows) or both routes' results to compare.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gmanova import (
    DesignSpec,
    GroupError,
    GroupedSample,
    MeanModel,
    NoBalancingSolution,
    assumption_diagnostics,
    build_omega,
    build_projections,
    estimate_variance,
    growth_curve,
    hypothesis_projector,
    model_diagnostics,
    one_way_manova,
    profile_parallelism,
    projector,
    run_test,
    sigma_full,
    two_way_manova,
)
from gmanova.design import BALANCE_RTOL, residual_basis
from gmanova.estimators import compress
from gmanova.oracle import dense_min_norm_solve
from gmanova.scenarios import EFFECTS
from gmanova.trace_test import mean_rows

from dense_forms import one_row_classes

LAYOUTS = ("one-way", "two-way", "profile", "growth", "shared", "covariate",
           "two-row", "binary", "regression")


@st.composite
def cases(draw, layout):
    p = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = draw(st.lists(st.integers(4, 8), min_size=2, max_size=3))
    if layout == "two-way":
        b = draw(st.integers(2, 3))
        sizes = draw(st.lists(st.integers(3, 6), min_size=2 * b, max_size=2 * b))
        design = two_way_manova(2, b, sizes, p, draw(st.sampled_from(EFFECTS))).design
    elif layout == "profile":
        design = profile_parallelism(sizes, p).design
    elif layout == "growth":
        design = growth_curve(sizes, p, draw(st.integers(0, p - 1))).design
    elif layout == "regression":
        n = draw(st.integers(2, 6))
        design = DesignSpec(A=np.column_stack([np.ones(n), rng.normal(size=n)]),
                            B=np.eye(p), L=np.array([[0.0, 1.0]]), R=np.eye(p),
                            group_sizes=(n,))
    elif layout == "shared":
        N = sum(sizes)
        design = DesignSpec(A=np.ones((N, 1)), B=np.eye(p), L=np.eye(1), R=np.eye(p),
                            group_sizes=sizes)
    else:
        if layout == "two-row":
            sizes = [2] + sizes
        design = one_way_manova(sizes, p).design
        column = None
        if layout == "covariate":
            column = rng.normal(size=design.N)
        elif layout == "binary":
            column = np.concatenate([np.arange(n) % 2 for n in sizes]).astype(float)
        if column is not None:
            design = DesignSpec(A=np.column_stack([design.A, column]), B=design.B,
                                L=np.hstack([design.L, np.zeros((design.ell, 1))]),
                                R=design.R, group_sizes=design.group_sizes)
    theta = rng.normal(size=(design.k, design.q))
    sigmas = tuple(np.diag(rng.uniform(0.5, 2.0, size=p)) for _ in range(design.g))
    X = design.A @ theta @ design.B.T + rng.standard_normal((design.N, p))
    return design, MeanModel(theta, sigmas), X


def dense_build(design):
    """pi_a, pi_h, d, e, the relative residual and omega from N x N algebra,
    raising what build_projections must raise."""
    for i in range(design.g):
        residual_basis(design.A_block(i), group=i)
    pi_a = projector(design.A)
    pi_h, h = hypothesis_projector(design, np.arange(design.N))
    C = np.eye(design.N) - pi_a
    d, resid = dense_min_norm_solve(C * C, h)
    rel = resid / np.linalg.norm(h)
    if rel > BALANCE_RTOL:
        raise NoBalancingSolution(f"relative residual {rel:.3e}")
    omega = build_omega(pi_h, pi_a, d, np.ones(design.N))
    return pi_a, pi_h, d, h - (C * C) @ d, rel, omega


def close(got, want, scale=None):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.max(np.abs(want), initial=0.0) if scale is None else scale
    return np.max(np.abs(got - want), initial=0.0) <= 1e-10 * max(scale, 1e-300)


def same_report(got, want) -> bool:
    return all(close(getattr(got, f.name), getattr(want, f.name))
               if isinstance(getattr(want, f.name), float)
               else getattr(got, f.name) == getattr(want, f.name)
               for f in dataclasses.fields(want))


def dense_sigma(model, design, proj, omega):
    """sigma_full from the N x N omega: 2 sum_{i != j} omega_ij^2 tr(Psi_i
    Psi_j) plus four times the mean term, with Psi = P Sigma P'."""
    P = proj.compressor
    psis = [P @ S @ P.T for S in model.sigmas]
    groups = np.repeat(np.arange(design.g), design.group_sizes)
    traces = np.array([[np.sum(a * b) for b in psis] for a in psis])
    sigma0 = 2.0 * float(np.sum(omega ** 2 * traces[np.ix_(groups, groups)]))
    M = (omega @ (design.A @ model.theta @ design.B.T @ P.T)) @ P
    extra = sum(float(M[i] @ model.sigmas[groups[i]] @ M[i]) for i in range(design.N))
    return sigma0 + 4.0 * extra, sigma0, psis, M


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_class_build_matches_dense_build(layout, data):
    design, model, X = data.draw(cases(layout))
    try:
        pi_a, pi_h, d, e, rel, omega = dense_build(design)
    except (NoBalancingSolution, GroupError) as exc:
        event(type(exc).__name__)
        with pytest.raises(type(exc)):
            build_projections(design)
        return
    proj = build_projections(design)
    h_scale = np.max(np.abs(np.diag(pi_h)))

    assert close(proj.d, d)
    assert close(proj.e, e, h_scale)
    assert abs(proj.balancing_residual - rel) <= 1e-10
    assert close(proj.pi_a, pi_a) and close(proj.pi_h, pi_h)
    assert close(proj.omega, omega)
    sizes = design.group_sizes
    dense = one_row_classes(omega, sizes)
    assert close(proj.weights.block_sums, dense.block_sums)

    sigma, sigma0, psis, M = dense_sigma(model, design, proj, omega)
    got_sigma, got_sigma0 = sigma_full(model, design, proj)
    assert close(got_sigma, sigma) and close(got_sigma0, sigma0)

    pre = design.A @ model.theta @ design.B.T @ proj.compressor.T
    want = assumption_diagnostics(psis, dense, m_rows=M @ proj.compressor.T,
                                  m_scale=float(np.max(np.abs(pre))))
    assert same_report(model_diagnostics(model, design), want)

    try:
        report = run_test(GroupedSample(X, sizes), design, diagnostics=True)
    except GroupError:
        event("built, no variance estimate")
        return
    event("built and tested")
    scatters = estimate_variance(GroupedSample(X, sizes), design).s
    want = assumption_diagnostics(scatters, dense, heuristic=True)
    assert same_report(report.diagnostics, want)


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mean_rows_are_the_dense_omega_product(layout, data):
    """WM at each row's class is the dense omega M, and the Monte Carlo
    offset sizes @ <WM, M> per class is the dense tr(M' omega M), each
    within 1e-12 of the terms it sums, for the compressed mean rows M."""
    design, model, _ = data.draw(cases(layout))
    try:
        proj = design.projections
    except (NoBalancingSolution, GroupError) as exc:
        event(type(exc).__name__)
        return
    classes = proj.weights.classes
    M_rows = compress(design.A @ model.theta @ design.B.T, proj.compressor)
    M, WM = mean_rows(model.theta, design)
    omega = proj.omega
    assert close(M[classes.index], M_rows)
    terms = np.abs(omega) @ np.abs(M_rows)
    assert np.all(np.abs(WM[classes.index] - omega @ M_rows) <= 1e-12 * terms)
    offset = classes.sizes @ np.einsum("ij,ij->i", WM, M)
    assert abs(offset - np.sum(M_rows * (omega @ M_rows))) <= 1e-12 * np.sum(
        np.abs(M_rows) * terms)


def test_mean_rows_are_none_for_a_mean_the_compressor_removes():
    """No mean rows for theta = 0, nor for a mean on the coordinates that
    R leaves out, which the compressor maps to exact zeros."""
    base = one_way_manova((5, 6, 7), 4).design
    design = DesignSpec(A=base.A, B=base.B, L=base.L, R=np.eye(4)[:2],
                        group_sizes=base.group_sizes)
    assert mean_rows(np.zeros((design.k, design.q)), design) is None
    theta = np.zeros((design.k, design.q))
    theta[:, 2:] = np.arange(1.0, 2 * design.k + 1).reshape(design.k, 2)
    assert np.any(design.A @ theta @ design.B.T)
    assert mean_rows(theta, design) is None
    theta[0, 0] = 1.0
    assert mean_rows(theta, design) is not None


def test_every_mean_reader_names_a_theta_of_the_wrong_shape():
    design = one_way_manova((5, 6), 3).design
    model = MeanModel(np.ones((3, 3)), (np.eye(3),) * 2)
    for call in (sigma_full, model_diagnostics):
        with pytest.raises(ValueError, match="theta must be 2 x 3, got"):
            call(model, design)


def test_unsolvable_design_raises_on_both_routes():
    design = DesignSpec(A=np.array([[1.0], [2.0]]), B=np.eye(1), L=np.eye(1),
                        R=np.eye(1), group_sizes=(2,))
    with pytest.raises(NoBalancingSolution):
        dense_build(design)
    with pytest.raises(NoBalancingSolution):
        build_projections(design)
