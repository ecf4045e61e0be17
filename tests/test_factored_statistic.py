"""Property tests: the statistic evaluated through omega's factors matches
the dense N x N form and the dense oracle over random designs, and the
test, its set-up and Monte Carlo read no N x N matrix.

Designs are one-way (identity or square non-identity (B, R)), two-way,
profile or growth-curve layouts with groups of at least 4 rows, optionally
with a within-group covariate column added to A.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gmanova import (
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
    one_way_manova,
    profile_parallelism,
    run_test,
    sigma_full,
    statistic_t,
    two_way_manova,
)
from gmanova import design as design_module
from gmanova.oracle import t_by_decomposition
from gmanova.scenarios import EFFECTS


@st.composite
def cases(draw):
    layout = draw(st.sampled_from(("one-way", "square", "two-way", "profile", "growth")))
    p = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if layout == "two-way":
        b = draw(st.integers(2, 3))
        sizes = draw(st.lists(st.integers(4, 7), min_size=2 * b, max_size=2 * b))
        design = two_way_manova(2, b, sizes, p, draw(st.sampled_from(EFFECTS))).design
    else:
        sizes = draw(st.lists(st.integers(4, 9), min_size=2, max_size=3))
        if layout == "profile":
            design = profile_parallelism(sizes, p).design
        elif layout == "growth":
            design = growth_curve(sizes, p, draw(st.integers(0, p - 1))).design
        else:
            design = one_way_manova(sizes, p).design
    A, B, L, R = design.A, design.B, design.L, design.R
    if layout == "square":
        B = np.eye(p) + 0.3 * rng.normal(size=(p, p)) / np.sqrt(p)
        R = np.eye(p) + 0.3 * rng.normal(size=(p, p)) / np.sqrt(p)
    if draw(st.booleans()):
        covariate = np.zeros((design.N, 1))
        covariate[:sizes[0], 0] = rng.normal(size=sizes[0])
        A = np.hstack([A, covariate])
        L = np.hstack([L, np.zeros((L.shape[0], 1))])
    design = DesignSpec(A=A, B=B, L=L, R=R, group_sizes=tuple(sizes))
    theta = rng.normal(size=(design.k, design.q))
    scales = np.repeat(rng.uniform(0.5, 2.0, size=design.g), sizes)[:, None]
    X = A @ theta @ B.T + scales * rng.standard_normal((design.N, p))
    return design, X


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_factored_statistic_matches_dense_and_oracle(case):
    design, X = case
    try:
        proj = build_projections(design)
        est = estimate_variance(GroupedSample(X, design.group_sizes), design)
    except (NoBalancingSolution, GroupError):
        assume(False)

    factored = statistic_t(X, proj.compressor, proj.factors)
    dense = statistic_t(X, proj.compressor, proj.omega)
    scale = max(abs(dense), np.sqrt(max(est.sigma0_sq, 0.0)))
    assert factored == pytest.approx(dense, rel=0.0, abs=1e-10 * scale)
    assert factored == pytest.approx(t_by_decomposition(X, design),
                                     rel=0.0, abs=1e-8 * scale)


def test_replication_reads_no_dense_matrix(monkeypatch):
    """Set-up, test, variance, diagnostics and Monte Carlo share the
    design's one build and leave its lazily expanded N x N pi_a, pi_h and
    omega unread."""
    built = []

    def recording(design):
        built.append(build_projections(design))
        return built[-1]

    monkeypatch.setattr(design_module, "build_projections", recording)
    design = growth_curve((5, 7, 6), 4, 1).design
    sigmas = (np.eye(4), 2.0 * np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0]))
    X = np.random.default_rng(3).normal(size=(design.N, design.p))
    engine = TraceTestEngine(design)
    engine.statistics(X)
    run_test(GroupedSample(X, design.group_sizes), design, diagnostics=True)
    theta = calibrate_signal_ray(design, canonical_direction(design), sigmas, 2.0)
    model = MeanModel(theta, sigmas)
    sigma_full(model, design, engine.projections)
    model_diagnostics(model, design)
    monte_carlo(design, model, ErrorDistribution.gaussian(), reps=100, seed=1,
                threads=1)
    assert built == [engine.projections]
    assert not {"pi_a", "pi_h", "omega"} & set(vars(engine.projections))
