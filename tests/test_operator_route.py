"""The response side read by its structure.

The scenario builders give B and R as Structured identities, or an
identity B and first-difference R for profile parallelism, and the
package reads them without forming a p x p array: one-way and two-way
skip the compressor, and profile compresses by one Householder
reflection.  Over random designs with r <= N and r > N:

- one-way and two-way reports (T, sigma0_sq, z, p and the diagnostics)
  are bitwise those of the same design given dense np.eye B and R;
- profile reports are within 1e-12 of the same design given its dense B
  and R, which compresses by {R R'}^{-1/2} R, and T is within 1e-12 of
  oracle.t_by_decomposition;
- the dense B, R and compressor are formed on first read only.

At the paper's shape, one-way with six groups of 10 at p = 20000, the
scenario build and run_test stay under 100 MB of tracemalloc peak.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gmanova import (
    DesignSpec,
    ErrorDistribution,
    GroupedSample,
    GroupError,
    MeanModel,
    calibrate_signal_ray,
    canonical_direction,
    monte_carlo,
    one_way_manova,
    profile_parallelism,
    run_test,
    sigma_full,
    true_q,
    two_way_manova,
)
from gmanova.design import Structured, row_compressor
from gmanova.estimators import compress, expand
from gmanova.oracle import t_by_decomposition
from gmanova.scenarios import EFFECTS

REL = 1e-12


def _dense(design, B=None, R=None) -> DesignSpec:
    return DesignSpec(A=design.A, B=design.B if B is None else B, L=design.L,
                      R=design.R if R is None else R, group_sizes=design.group_sizes)


def _fields(report) -> dict:
    out = dataclasses.asdict(report)
    out.update(out.pop("diagnostics"))
    return out


@st.composite
def identity_cases(draw):
    """(design, X): a one-way or two-way design with p from 1 to 60, so
    that r = p falls on both sides of N."""
    p = draw(st.integers(1, 60))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(3, 9), min_size=2, max_size=4))
        design = one_way_manova(sizes, p).design
    else:
        b = draw(st.integers(2, 3))
        sizes = draw(st.lists(st.integers(3, 6), min_size=2 * b, max_size=2 * b))
        design = two_way_manova(2, b, sizes, p, draw(st.sampled_from(EFFECTS))).design
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return design, rng.standard_normal((design.N, p)) * 10.0 ** rng.uniform(-3, 3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(identity_cases())
def test_identity_reports_are_bitwise_those_of_dense_identities(case):
    design, X = case
    p = design.p
    assert design.response == "identity" and "B" not in vars(design)
    sample = GroupedSample(X, design.group_sizes)
    try:
        got = run_test(sample, design, diagnostics=True)
    except GroupError:
        assume(False)
    want = run_test(sample, _dense(design, np.eye(p), np.eye(p)), diagnostics=True)
    assert _fields(got) == _fields(want)
    assert design.projections.thin is None
    assert not {"B", "R", "compressor"} & (set(vars(design)) | set(vars(design.projections)))


@st.composite
def profile_cases(draw):
    p = draw(st.integers(2, 60))
    sizes = draw(st.lists(st.integers(3, 9), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    design = profile_parallelism(sizes, p).design
    return design, rng.standard_normal((design.N, p))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(profile_cases())
def test_profile_reports_match_the_dense_compressor_and_the_oracle(case):
    design, X = case
    sample = GroupedSample(X, design.group_sizes)
    try:
        got = run_test(sample, design, diagnostics=True)
    except GroupError:
        assume(False)
    assert design.response == "differences"
    assert not {"B", "R", "compressor"} & (set(vars(design)) | set(vars(design.projections)))
    dense = _dense(design)
    assert dense.response is None and dense.projections.thin.ndim == 2
    want = run_test(sample, dense, diagnostics=True)
    scale = max(abs(want.t_stat), np.sqrt(want.sigma0_sq_hat))
    assert abs(got.t_stat - want.t_stat) <= REL * scale
    assert abs(got.t_stat - t_by_decomposition(X, design)) <= REL * scale
    for name in ("sigma0_sq_hat", "z", "p_value"):
        a, b = getattr(got, name), getattr(want, name)
        assert abs(a - b) <= REL * max(abs(b), 1.0 if name == "z" else 0.0), name
    for name in ("rho_n", "a2_ratio", "a3_ratio", "group_imbalance"):
        a, b = getattr(got.diagnostics, name), getattr(want.diagnostics, name)
        assert abs(a - b) <= REL * abs(b), name


def test_the_reflection_is_the_dense_compressor_and_its_transpose():
    """compress and expand by the reflection equal the products with the
    dense compressor, an orthonormal basis of the complement of the ones
    vector, and the dense B and R are the matrices of the structure."""
    p = 7
    design = profile_parallelism((4, 5), p).design
    w = row_compressor(design)
    assert w.shape == (p,) and abs(np.linalg.norm(w) - 1.0) <= 1e-15
    P = design.projections.compressor
    assert P.shape == (p - 1, p) and not P.flags.writeable
    assert np.allclose(P @ P.T, np.eye(p - 1), atol=1e-14)
    assert np.allclose(P @ np.ones(p), 0.0, atol=1e-14)
    Z = np.random.default_rng(2).normal(size=(3, 5, p))
    assert np.allclose(compress(Z, w), Z @ P.T, atol=1e-14)
    Y = compress(Z, w)
    assert np.allclose(expand(Y, w), Y @ P, atol=1e-14)
    D = design.R
    assert np.array_equal(D, np.eye(p - 1, p) - np.eye(p - 1, p, k=1))
    assert np.array_equal(design.B, np.eye(p)) and not D.flags.writeable
    assert np.array_equal(Structured("differences", p).gram(), D @ D.T)


@pytest.mark.parametrize("make, p", [(one_way_manova, 9), (profile_parallelism, 9),
                                     (one_way_manova, 40), (profile_parallelism, 40)])
def test_model_side_matches_the_dense_design(make, p):
    """true_q, the calibrated signal, sigma_full and a Monte Carlo run agree
    with the same design given dense B and R (r <= N and r > N)."""
    design = make((6, 7, 8), p).design
    dense = _dense(design)
    rng = np.random.default_rng(4)
    F = rng.normal(size=(p, p))
    sigmas = (np.eye(p), F @ F.T / p + np.eye(p), 2.0 * np.eye(p))
    direction = canonical_direction(design)
    assert np.array_equal(direction, canonical_direction(dense))
    theta = calibrate_signal_ray(design, direction, sigmas, 1.5)
    assert np.allclose(theta, calibrate_signal_ray(dense, direction, sigmas, 1.5),
                       rtol=REL, atol=0.0)
    for t in (theta, rng.normal(size=theta.shape)):
        assert true_q(t, design) == pytest.approx(true_q(t, dense), rel=REL)
    shift = np.outer(rng.normal(size=design.k), np.ones(p))
    assert (true_q(shift, design) == 0.0) == (make is profile_parallelism)
    model = MeanModel(theta, sigmas)
    assert sigma_full(model, design) == pytest.approx(sigma_full(model, dense), rel=REL)
    dist = ErrorDistribution.standardized_gamma(2.0)
    got = monte_carlo(design, model, dist, reps=100, seed=3, threads=1)
    want = monte_carlo(dense, model, dist, reps=100, seed=3, threads=1)
    assert got.rejection_rate == want.rejection_rate
    assert got.z_mean == pytest.approx(want.z_mean, abs=1e-10)
    assert got.predicted_power == pytest.approx(want.predicted_power, rel=1e-10)


def test_paper_regime_one_way_stays_small():
    """Six groups of 10 at p = 20000: the scenario build and run_test peak
    under 100 MB of tracemalloc, the 9.6 MB data matrix included; the dense
    identities alone would take 3.2 GB each."""
    sizes, p = (10,) * 6, 20000
    tracemalloc.start()
    try:
        X = np.random.default_rng(0).standard_normal((60, p))
        report = run_test(GroupedSample(X, sizes), one_way_manova(sizes, p).design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.degenerate
    assert peak < 100e6, peak / 1e6
