"""Monte Carlo in chunks: one statistics call per stack of replications.

Over random one-way, growth-curve, two-way, profile and covariate designs
(a within-group covariate on every row, so each row is its own class, and
sum(k_i) > k), with r <= N and r > N, square and non-square compressors,
zero, calibrated and 10^3 sigma means, covariances that are coloured by
their roots or drawn in their shared eigenbasis (one AR(1) covariance
beside c I under a spherical law), and chunk sizes B forced through the
byte budget so that the replication count is not a multiple of B: a chunk
is a (B, N, r) stack of compressed errors when r <= N and a (B, N, N) stack
of error Grams when r > N, every replication's T and sigma0 from a chunk
is within 1e-12 of TraceTestEngine.statistics on its single data matrix
and, when r <= N, of the dense oracle (tr(Y' omega Y), a2_hat, b_hat,
sigma0_hat), the summaries at threads 1, 2 and 3 are bitwise equal, and a
stack of any other shape is rejected naming the accepted ones.
"""

import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gmanova import (
    ConfigError,
    CovarianceSpec,
    DesignSpec,
    ErrorDistribution,
    GroupError,
    MeanModel,
    NoBalancingSolution,
    TraceTestEngine,
    calibrate_signal_ray,
    canonical_direction,
    a2_hat,
    b_hat,
    group_residual_scatter,
    growth_curve,
    monte_carlo,
    one_way_manova,
    profile_parallelism,
    sigma0_hat,
    two_way_manova,
    v_hat,
)
from gmanova import simulate
from gmanova.estimators import compress
from gmanova.scenarios import EFFECTS
from gmanova.simulate import batch_size, replication_sampler

TOL = 1e-12
DISTRIBUTIONS = (ErrorDistribution.gaussian(), ErrorDistribution.elliptical_t(7.0),
                 ErrorDistribution.standardized_gamma(1.5), ErrorDistribution.rademacher())


LAYOUTS = ("one-way", "growth", "two-way", "profile", "covariate")


@st.composite
def cases(draw, layout, wide):
    """(design, model, distribution, B, reps, large): a design of the
    layout with r > N when wide, a zero, calibrated or (large is then True)
    10^3 sigma mean, and the chunk size B to force.  The covariances are
    AR(1) and diagonal ramps by turns, or, under a Gaussian or elliptical
    law, one AR(1) covariance beside c I for c != 1, which a square
    compressor draws in the AR(1) eigenbasis."""
    if layout == "two-way":
        sizes = draw(st.lists(st.integers(4, 6), min_size=4, max_size=4))
    else:
        sizes = draw(st.lists(st.integers(4, 9), min_size=2, max_size=3))
    N = sum(sizes)
    p = N + draw(st.integers(2, 6)) if wide else draw(st.integers(3, N - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if layout == "two-way":
        design = two_way_manova(2, 2, sizes, p, draw(st.sampled_from(EFFECTS))).design
    elif layout == "growth":
        lowest = N if wide else 0
        design = growth_curve(sizes, p, draw(st.integers(lowest, p - 1))).design
    elif layout == "profile":
        design = profile_parallelism(sizes, p).design
    else:
        design = one_way_manova(sizes, p).design
    if layout == "covariate":
        design = DesignSpec(A=np.hstack([design.A, rng.normal(size=(design.N, 1))]),
                            B=design.B, L=np.hstack([design.L, np.zeros((design.ell, 1))]),
                            R=design.R, group_sizes=design.group_sizes)
    assert (design.r > design.N) == wide
    shared = draw(st.booleans())
    sigmas = tuple(CovarianceSpec(kind="ar1", rho=0.4).matrix(p) if i % 2
                   else (1.5 + i) * np.eye(p) if shared
                   else np.diag(np.linspace(1.0, 2.0 + i, p)) for i in range(design.g))
    mean = draw(st.sampled_from(("zero", "calibrated", "1e3 sigma")))
    direction = canonical_direction(design)
    try:
        design.projections
        design.tau
        theta = calibrate_signal_ray(design, direction, sigmas,
                                     1.5 if mean == "calibrated" else 0.0)
    except (NoBalancingSolution, GroupError):
        assume(False)
    if mean == "1e3 sigma":  # the largest mean entry 10^3 times the largest error sd
        sd = max(np.sqrt(np.max(np.diag(S))) for S in sigmas)
        theta = direction * (1e3 * sd / np.max(np.abs(design.A @ direction @ design.B.T)))
    B = draw(st.sampled_from((1, 2, 3, 7, 64)))
    reps = draw(st.sampled_from((100, 101, 117)))
    dist = draw(st.sampled_from(DISTRIBUTIONS[:2] if shared else DISTRIBUTIONS))
    return design, MeanModel(theta, sigmas), dist, B, reps, mean == "1e3 sigma"


def _width(design) -> int:
    """The last axis of a chunk: r compressed columns, or N for the
    error Grams when r > N."""
    return min(design.N, design.r)


def _budget(monkeypatch, design, B):
    """Set the byte budget so that batch_size(design) is B."""
    monkeypatch.setattr(simulate, "BATCH_BYTES", 8 * design.N * _width(design) * B)
    assert batch_size(design) == B


def _errors(design, model, dist):
    """The replication sampler of the model's errors alone."""
    zero = MeanModel(np.zeros_like(model.theta), model.sigmas)
    return replication_sampler(design, zero, [dist] * design.g)


def _check_close(got_t, got_s0, design, X, E=None):
    """T and sigma0 of one replication against statistics on its data
    matrix X, relative to the magnitude of the terms each one sums (both
    are differences of positive terms and may cancel).  Given the errors E
    of X, sigma0 is checked against theirs: it does not depend on a mean
    in the range of A, and at a 10^3 sigma mean the statistic of X itself
    loses digits of it when centring its rows (up to 1.3e-12 of its terms
    on these designs), which the chunks of errors do not."""
    t, a2, b, s0 = TraceTestEngine(design).statistics(X)
    if E is not None:
        _, a2, b, s0 = TraceTestEngine(design).statistics(E)
    Y = compress(X, design.projections.compressor)
    assert abs(got_t - t) <= TOL * _t_terms(design, Y)
    assert abs(got_s0 - s0) <= TOL * _s0_terms(design, a2, b)


def _t_terms(design, Y) -> float:
    """The magnitude of the terms T sums through omega's factors for the
    compressed rows Y."""
    proj, Q = design.projections, design.a_basis
    CY = Y - Q @ (Q.T @ Y)
    return (np.sum((design.hypothesis_root @ Y) ** 2)
            + np.abs(proj.d) @ np.sum(CY * CY, axis=1)
            + np.abs(proj.e) @ np.sum(Y * Y, axis=1))


def _s0_terms(design, a2, b) -> float:
    """The magnitude of the terms of sigma0 from a2 and b."""
    return 2.0 * np.sum(np.abs(design.projections.weights.block_sums * (b + np.diag(a2))))


def _recording(monkeypatch, calls):
    """Record (t, a2, b, sigma0) of every TraceTestEngine.statistics call.
    monte_carlo adds the mean's shift to t in place, so the recorded t is
    the replication's T."""
    statistics = TraceTestEngine.statistics

    def recording(self, X):
        out = statistics(self, X)
        calls.append((X.shape, *out))
        return out

    monkeypatch.setattr(TraceTestEngine, "statistics", recording)


def _bits(summary) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(summary))


@pytest.mark.parametrize("wide", [False, True], ids=["r<=N", "r>N"])
@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_chunks_match_the_one_matrix_statistic(monkeypatch, layout, wide, data):
    design, model, dist, B, reps, large = data.draw(cases(layout, wide))
    _budget(monkeypatch, design, B)
    draw = replication_sampler(design, model, [dist] * design.g)
    errors = _errors(design, model, dist) if large else None
    seed = 5

    calls = []
    with monkeypatch.context() as mp:
        _recording(mp, calls)
        serial = monte_carlo(design, model, dist, reps=reps, seed=seed, threads=1)

    shape = (design.N, _width(design))
    assert [c[0] for c in calls] == (
        [(B, *shape)] * (reps // B) + [(reps % B, *shape)] * (reps % B > 0))
    t = np.concatenate([c[1] for c in calls])
    s0 = np.concatenate([c[4] for c in calls])
    for j in range(reps):
        _check_close(t[j], s0[j], design, draw(seed, j), errors(seed, j) if large else None)

    for threads in (2, 3):
        parallel = monte_carlo(design, model, dist, reps=reps, seed=seed, threads=threads)
        assert _bits(parallel) == _bits(serial)


@pytest.mark.parametrize("wide", [False, True], ids=["r<=N", "r>N"])
@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_stack_is_each_of_its_matrices(layout, wide, data):
    """Compressed (B, N, r) stacks and, when r > N, (B, N, N) Grams of
    compressed errors give each matrix's statistics; any other shape, a
    raw (B, N, p) stack for p != r among them, is rejected naming the
    accepted ones."""
    design, model, dist, B, _, large = data.draw(cases(layout, wide))
    engine = TraceTestEngine(design)
    draw = replication_sampler(design, model, [dist] * design.g)
    X = np.stack([draw(3, j) for j in range(min(B, 5))])
    E = np.stack([_errors(design, model, dist)(3, j) for j in range(len(X))])
    Y = compress(E, engine.projections.compressor)
    stacks = [(compress(X, engine.projections.compressor), X)]
    if wide:
        stacks.append((Y @ Y.swapaxes(1, 2), E))
    for stack, matrices in stacks:
        t, a2, b, s0 = engine.statistics(stack)
        assert t.shape == s0.shape == (len(X),)
        assert a2.shape == (len(X), design.g) and b.shape == (len(X), design.g, design.g)
        for j, X_j in enumerate(matrices):
            _check_close(t[j], s0[j], design, X_j)
            assert np.all(b[j].diagonal() == 0.0)

    N, p, r = design.N, design.p, design.r
    width = next(w for w in range(1, p + r + 2) if w not in (p, r, N))
    accepted = rf"\({N}, {p}\), or a stack of \(B, {N}, {r}\) compressed rows"
    whole = accepted + (rf", or \(B, {N}, {N}\) Grams of compressed rows$" if wide else "$")
    with pytest.raises(ConfigError, match=whole):
        engine.statistics(np.zeros((2, N, width)))
    if p != r:  # raw data matrices are no chunk shape
        with pytest.raises(ConfigError, match=whole):
            engine.statistics(np.zeros((2, N, p)))
    if not wide:  # N x N is no chunk shape when r <= N
        with pytest.raises(ConfigError, match=whole):
            engine.statistics(np.zeros((2, N, N)))


def _scatter_oracle(design, E):
    """(a2, b, sigma0) from a2_hat, b_hat and the dense sigma0_hat on the
    group scatters of the compressed rows E, with the magnitudes of the
    terms each one sums."""
    tau, g = design.tau, design.g
    S, a2, a2_terms = [], np.empty(g), np.empty(g)
    for i in range(g):
        S_i, Q_i, k_i = group_residual_scatter(E[design.group_slice(i)],
                                               design.A_block(i), None)
        n_i, (t1, t2, t3) = design.group_sizes[i], tau[i]
        m, tr_s = n_i - k_i, float(np.trace(S_i))
        a2[i] = a2_hat(S_i, Q_i, tau[i], n_i, k_i)
        a2_terms[i] = (abs(m * m * t2 - t1 * t1) * np.sum(S_i * S_i)
                       + abs(m * t2 - t1 * t1) * tr_s * tr_s
                       + abs(m - 1.0) * t1 * Q_i) / abs(m * t3)
        S.append(S_i)
    b = np.array([[b_hat(S_i, S_j) if i != j else 0.0 for j, S_j in enumerate(S)]
                  for i, S_i in enumerate(S)])
    norms = np.sqrt([b_hat(S_i, S_i) for S_i in S])
    omega = design.projections.omega
    sigma0 = sigma0_hat(omega, v_hat(a2, b, design.group_sizes))
    s0_terms = sigma0_hat(np.abs(omega), v_hat(a2_terms, np.outer(norms, norms),
                                               design.group_sizes))
    return (a2, a2_terms), (b, np.outer(norms, norms)), (sigma0, s0_terms)


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_narrow_chunks_match_the_dense_oracle(monkeypatch, layout, data):
    """r <= N: each replication's T from a chunk of compressed errors and
    the mean's shift is the dense tr(Y' omega Y) of its compressed data Y,
    and its a2, b and sigma0 are a2_hat, b_hat and sigma0_hat(omega, v_hat)
    of its errors' group scatters, each within 1e-12 of the terms it sums."""
    design, model, dist, B, reps, _ = data.draw(cases(layout, False))
    _budget(monkeypatch, design, B)
    calls = []
    with monkeypatch.context() as mp:
        _recording(mp, calls)
        monte_carlo(design, model, dist, reps=reps, seed=9, threads=1)
    t, a2, b, s0 = (np.concatenate([c[k] for c in calls]) for k in range(1, 5))

    draw = replication_sampler(design, model, [dist] * design.g)
    errors = _errors(design, model, dist)
    P, omega = design.projections.compressor, design.projections.omega
    for j in range(reps):
        Y = compress(draw(9, j), P)
        assert abs(t[j] - np.sum((omega @ Y) * Y)) <= TOL * _t_terms(design, Y)
        (want_a2, a2_terms), (want_b, b_terms), (want_s0, s0_terms) = \
            _scatter_oracle(design, compress(errors(9, j), P))
        assert np.all(np.abs(a2[j] - want_a2) <= TOL * a2_terms)
        assert np.all(np.abs(b[j] - want_b) <= TOL * b_terms)
        assert abs(s0[j] - want_s0) <= TOL * s0_terms


def test_a_large_mean_costs_no_digits_of_sigma0(monkeypatch):
    """On a (5, 6, 7) x 12 degree-2 growth curve whose largest mean entry is
    10^3 times the largest error sd, each chunk's sigma0 is within 2e-15 of
    its terms of the statistic of the replication's errors: r <= N chunks
    hold the errors, and the mean only shifts T."""
    design = growth_curve((5, 6, 7), 12, 2).design
    sigmas = (np.eye(12), CovarianceSpec(kind="ar1", rho=0.4).matrix(12),
              np.diag(np.linspace(1.0, 3.0, 12)))
    direction = canonical_direction(design)
    theta = direction * (1e3 * np.sqrt(3.0)
                         / np.max(np.abs(design.A @ direction @ design.B.T)))
    model = MeanModel(theta, sigmas)
    dist = ErrorDistribution.elliptical_t(7.0)
    calls = []
    with monkeypatch.context() as mp:
        _recording(mp, calls)
        monte_carlo(design, model, dist, reps=100, seed=4, threads=1)
    s0 = np.concatenate([c[4] for c in calls])
    assert len(calls) > 1
    errors, engine = _errors(design, model, dist), TraceTestEngine(design)
    for j in range(100):
        _, a2, b, want = engine.statistics(errors(4, j))
        assert abs(s0[j] - want) <= 2e-15 * _s0_terms(design, a2, b)


def test_one_matrix_in_a_stack_is_bitwise_the_matrix():
    """The one-matrix call is the B = 1 case: same bits as a stack of its
    one compressed matrix."""
    design = growth_curve((7, 9, 8), 12, 2).design
    engine = TraceTestEngine(design)
    X = np.random.default_rng(2).standard_normal((design.N, design.p))
    t, a2, b, s0 = engine.statistics(X)
    t1, a21, b1, s01 = engine.statistics(compress(X, engine.projections.compressor)[None])
    assert t == t1[0] and s0 == s01[0]
    assert np.array_equal(a2, a21[0]) and np.array_equal(b, b1[0])
    assert isinstance(t, float) and isinstance(s0, float)


def test_batch_size_comes_from_the_design_shape():
    """B = 9 at N r = 3600, 1 when one stack exceeds the budget, at most
    64, and, when r > N, 3 for the 100 x 100 error Grams of N = 100."""
    assert batch_size(growth_curve((300,) * 4, 60, 2).design) == 9
    assert batch_size(one_way_manova((150, 250, 300, 300), 300).design) == 1
    assert batch_size(one_way_manova((40, 60), 600).design) == 3
    assert batch_size(one_way_manova((50, 50), 200).design) == 3
    assert batch_size(one_way_manova((4, 4), 3).design) == 64


def test_batch_size_is_logged(caplog):
    design = growth_curve((300,) * 4, 60, 2).design
    model = MeanModel(np.zeros((design.k, design.q)), (np.eye(design.p),) * 4)
    with caplog.at_level(logging.INFO, logger="gmanova.simulate"):
        monte_carlo(design, model, ErrorDistribution.gaussian(), reps=100, seed=1, threads=1)
    assert "B=9" in caplog.records[-1].getMessage()


@pytest.mark.parametrize("design, second, dist, logged", [
    (one_way_manova((150, 250, 300, 300), 300).design,
     CovarianceSpec(kind="ar1", rho=0.5), ErrorDistribution.gaussian(),
     "B=1, route=eigenbasis/rows"),
    (one_way_manova((40, 60), 600).design,
     CovarianceSpec(kind="ar1", rho=0.5, scale=3.0), ErrorDistribution.elliptical_t(8.0),
     "B=3, route=eigenbasis/gram"),
    (growth_curve((300,) * 4, 60, 2).design,
     CovarianceSpec(kind="diagonal_ramp", lo=0.5, hi=2.0),
     ErrorDistribution.standardized_gamma(1.0), "B=9, route=root/compressed"),
], ids=["cli-test-n1000", "mc-wide-p", "mc-growth-n1200"])
def test_the_benchmark_routes_are_logged(caplog, design, second, dist, logged):
    """The benchmark's three Monte Carlo shapes, laws and covariances (the
    identity beside a second one, by turns) log their chunk size and the
    draw plan's route: rows drawn in place in the eigenbasis, error Grams
    in the eigenbasis, and rows compressed after a diagonal scale."""
    sigmas = tuple(np.eye(design.p) if i % 2 == 0 else second.matrix(design.p)
                   for i in range(design.g))
    model = MeanModel(np.zeros((design.k, design.q)), sigmas)
    with caplog.at_level(logging.INFO, logger="gmanova.simulate"):
        monte_carlo(design, model, dist, reps=100, seed=1, threads=1)
    assert caplog.records[-1].getMessage().endswith(logged)


def test_peak_memory_does_not_grow_with_replications():
    """On a growth design, the traced peak of 1000 replications is within
    5% of that of 100: nothing per replication is kept beyond the z values,
    and no raw (B, N, p) stack is held."""
    design = growth_curve((300,) * 4, 60, 2).design
    sigmas = (np.eye(60), np.diag(np.linspace(0.5, 2.0, 60))) * 2
    theta = calibrate_signal_ray(design, canonical_direction(design), sigmas, 2.0)
    model = MeanModel(theta, sigmas)
    dist = ErrorDistribution.standardized_gamma(1.0)
    monte_carlo(design, model, dist, reps=100, seed=1, threads=1)  # warm the caches
    peaks = []
    for reps in (100, 1000):
        tracemalloc.start()
        try:
            monte_carlo(design, model, dist, reps=reps, seed=2, threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]
    raw_stack = batch_size(design) * design.N * design.p * 8
    assert peaks[1] < raw_stack
