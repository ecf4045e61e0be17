"""Which colouring a run's draw plan takes, and that the eigenbasis route
keeps the law of the statistic.

Under a Gaussian or elliptical law, a square compressor and covariances
that share one eigenbasis V (one full covariance, every other one c I),
the plan's route is eigenbasis/...: each group's standard rows are drawn
in V and their columns scaled by the square roots of the eigenvalues.
Every other run takes the root route and draws bitwise what it drew
before the eigenbasis route existed: each group's standard rows times the
covariance's symmetric root, or scaled by the square root of a diagonal
one.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gmanova import (
    CovarianceSpec,
    ErrorDistribution,
    MeanModel,
    TraceTestEngine,
    covariance,
    growth_curve,
    monte_carlo,
    one_way_manova,
)
from gmanova.simulate import _plan, _substream

P = 12
AR1 = CovarianceSpec(kind="ar1", rho=0.5).matrix(P)
CS = CovarianceSpec(kind="compound_symmetry", rho=0.3).matrix(P)
RAMP = CovarianceSpec(kind="diagonal_ramp", lo=0.5, hi=2.0).matrix(P)
GAUSSIAN = ErrorDistribution.gaussian()


def _draw(design, sigmas, dist, seed=7, j=3):
    """(plan, E): the run's draw plan and the errors of replication j as
    drawn: on the eigenbasis route, in V, as fill returns them (the
    compressor is square), and else as the plan's errors reader does."""
    model = MeanModel(np.zeros((design.k, design.q)), sigmas)
    plan = _plan(design, model, [dist] * design.g)
    if plan.route.startswith("eigenbasis/"):
        return plan, plan.fill(seed, j, plan.stack(1)[0])
    return plan, plan.errors(seed, j)


def _standard_rows(design, dist, seed=7, j=3):
    """Each group's standard rows, drawn in turn from the substream (seed, j)."""
    rng = _substream(seed, j)
    return [dist.sample(rng, n, design.p) for n in design.group_sizes]


NOT_ELIGIBLE = {
    "gamma": (one_way_manova((5, 6), P).design, (AR1, 2.0 * np.eye(P)),
              ErrorDistribution.standardized_gamma(1.5)),
    "rademacher": (one_way_manova((5, 6), P).design, (AR1, 2.0 * np.eye(P)),
                   ErrorDistribution.rademacher()),
    "diagonal_ramp": (one_way_manova((5, 6), P).design, (AR1, RAMP), GAUSSIAN),
    "two full covariances": (one_way_manova((5, 6), P).design, (AR1, CS),
                             ErrorDistribution.elliptical_t(8.0)),
    "non-square compressor": (growth_curve((5, 6), P, 2).design, (AR1, 2.0 * np.eye(P)),
                              GAUSSIAN),
}


@pytest.mark.parametrize("case", NOT_ELIGIBLE, ids=str)
def test_other_runs_draw_what_they_drew_before(case):
    """errors(seed, j) is each group's standard rows times the covariance's
    symmetric root, or times the square roots of a diagonal one."""
    design, sigmas, dist = NOT_ELIGIBLE[case]
    plan, E = _draw(design, sigmas, dist)
    assert plan.route.startswith("root/")
    for i, Z in enumerate(_standard_rows(design, dist)):
        entry = covariance.lookup([sigmas[i]])[0][0]
        root, scale = entry.colouring(sigmas[i])
        want = Z @ root if root is not None else Z * scale
        assert np.array_equal(E[design.group_slice(i)], want)


@pytest.mark.parametrize("dist", [GAUSSIAN, ErrorDistribution.elliptical_t(8.0)],
                         ids=lambda d: d.kind)
def test_a_shared_eigenbasis_scales_columns(dist):
    """One AR(1) covariance beside 2 I (and beside itself, in another
    array): V is its eigenbasis, and each group's standard rows have their
    columns scaled by the square roots of its eigenvalues, or of 2."""
    design = one_way_manova((5, 6, 4), P).design
    sigmas = (AR1, 2.0 * np.eye(P), AR1.copy())
    plan, E = _draw(design, sigmas, dist)
    w, basis = covariance.lookup([AR1])[0][0].spectrum(AR1)
    assert plan.route == "eigenbasis/rows"
    assert np.array_equal(plan.errors(7, 3), E @ basis.T)  # the data's errors are E V'
    scales = (np.sqrt(w), np.sqrt(2.0), np.sqrt(w))
    for i, Z in enumerate(_standard_rows(design, dist)):
        assert np.array_equal(E[design.group_slice(i)], Z * scales[i])


def test_scalar_covariances_keep_their_stream():
    """With no full covariance there is no basis to share: the identity is
    not scaled and c I is scaled by sqrt(c), as before."""
    design = one_way_manova((5, 6), P).design
    plan, E = _draw(design, (np.eye(P), 3.0 * np.eye(P)), GAUSSIAN)
    assert plan.route == "root/gram"
    Z0, Z1 = _standard_rows(design, GAUSSIAN)
    assert np.array_equal(E, np.vstack([Z0, Z1 * np.sqrt(3.0)]))


def _recorded_z(monkeypatch, call):
    """The z of every replication of a monte_carlo call, from the
    statistics of its chunks (the mean is zero, so T is not shifted)."""
    calls = []
    statistics = TraceTestEngine.statistics

    def recording(self, X):
        out = statistics(self, X)
        calls.append(out)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(TraceTestEngine, "statistics", recording)
        call()
    t = np.concatenate([c[0] for c in calls])
    s0 = np.concatenate([c[3] for c in calls])
    return t[s0 > 0] / np.sqrt(s0[s0 > 0])


def test_eigenbasis_z_has_the_law_of_coloured_z(monkeypatch):
    """(10, 12) x 30 with AR(1) beside 2 I under elliptical t errors: a
    two-sample KS test of 10^4 z values from monte_carlo (the eigenbasis
    route) against 10^4 from rows coloured by the symmetric roots does not
    reject at 0.01."""
    p, reps = 30, 10_000
    design = one_way_manova((10, 12), p).design
    sigmas = (CovarianceSpec(kind="ar1", rho=0.5).matrix(p), 2.0 * np.eye(p))
    dist = ErrorDistribution.elliptical_t(8.0)
    model = MeanModel(np.zeros((design.k, design.q)), sigmas)
    assert _plan(design, model, [dist] * 2).route == "eigenbasis/gram"
    z_route = _recorded_z(monkeypatch, lambda: monte_carlo(
        design, model, dist, reps=reps, seed=31, threads=1))

    roots = [CovarianceSpec(kind="ar1", rho=0.5).sqrt(p), np.sqrt(2.0) * np.eye(p)]
    engine, rng = TraceTestEngine(design), np.random.default_rng(32)
    z_coloured = []
    for _ in range(reps // 500):
        stack = np.stack([np.vstack([dist.sample(rng, n, p) @ root
                                     for n, root in zip(design.group_sizes, roots)])
                          for _ in range(500)])
        t, _, _, s0 = engine.statistics(stack)
        z_coloured.append(t[s0 > 0] / np.sqrt(s0[s0 > 0]))
    z_coloured = np.concatenate(z_coloured)

    assert len(z_route) > 0.99 * reps and len(z_coloured) > 0.99 * reps
    assert ks_2samp(z_route, z_coloured).pvalue > 0.01
