"""Each design factorization runs once per DesignSpec, and every covariance
gate gives the one positive-definiteness verdict of the covariance cache.

The gates are CovarianceSpec.sqrt (or the entry's symmetric root for a
plain matrix), sigma_full, model_diagnostics, the replication sampler and
monte_carlo.  Each is called with the cache cold, so each computes the
verdict itself.  The singular compound-symmetry covariances,
rho = -1/(p-1), have a smallest eigenvalue of rounding size and must be
rejected by all of them.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmanova import (
    ConfigError,
    CovarianceSpec,
    DesignSpec,
    ErrorDistribution,
    GroupedSample,
    MeanModel,
    TraceTestEngine,
    canonical_direction,
    covariance,
    growth_curve,
    model_diagnostics,
    monte_carlo,
    one_way_manova,
    profile_parallelism,
    run_test,
    sigma_full,
    true_q,
)
from gmanova.blas import openblas_threads
from gmanova.cli import main
from gmanova.simulate import replication_sampler


@pytest.fixture(autouse=True)
def cold_cache():
    covariance.clear_cache()
    yield
    covariance.clear_cache()


def _raises(call, error) -> bool:
    covariance.clear_cache()
    try:
        call()
    except error:
        return True
    return False


def _verdicts(S, spec=None) -> dict:
    """Whether each gate rejects the covariance S (paired with the identity
    in a two-group one-way design)."""
    p = S.shape[0]
    design = one_way_manova((5, 6), p).design
    model = MeanModel(np.zeros((2, p)), (np.eye(p), S))
    dist = ErrorDistribution.gaussian()

    def root():
        if spec is not None:
            return spec.sqrt(p)
        (entry,), _, _ = covariance.lookup([S])
        try:
            entry.colouring(S)
        except ValueError as exc:
            raise ConfigError("no root") from exc

    return {
        "sqrt": _raises(root, ConfigError),
        "sigma_full": _raises(lambda: sigma_full(model, design), ValueError),
        "model_diagnostics": _raises(lambda: model_diagnostics(model, design), ValueError),
        "sampler": _raises(lambda: replication_sampler(design, model, [dist] * 2),
                           ValueError),
        "monte_carlo": _raises(lambda: monte_carlo(design, model, dist, reps=100,
                                                   seed=1, threads=1), ValueError),
    }


@pytest.mark.parametrize("p", range(3, 80))
def test_singular_compound_symmetry_rejected_by_every_gate(p):
    spec = CovarianceSpec(kind="compound_symmetry", rho=-1.0 / (p - 1))
    verdicts = _verdicts(spec.matrix(p), spec)
    assert all(verdicts.values()), verdicts


@st.composite
def covariances(draw):
    """(S, positive definite): a well-conditioned SPD matrix, or one that
    is singular, indefinite, or diagonal with a zero entry."""
    p = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(("spd", "singular", "indefinite", "diagonal_zero",
                                 "diagonal")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.5, 2.0, p)
    if kind.startswith("diagonal"):
        if kind == "diagonal_zero":
            w[rng.integers(p)] = 0.0
        return np.diag(w), kind == "diagonal"
    if kind == "singular":
        w[0] = 0.0
    elif kind == "indefinite":
        w[0] = -rng.uniform(0.1, 1.0)
    Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return (Q * w) @ Q.T, kind == "spd"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(covariances())
def test_every_gate_gives_one_verdict(case):
    S, positive_definite = case
    verdicts = _verdicts(S)
    assert set(verdicts.values()) == {not positive_definite}, verdicts


def test_simulate_rejects_a_singular_covariance_with_exit_2(tmp_path, capsys):
    cfg = {"scenario": {"name": "one-way", "group_sizes": [6, 6], "p": 12},
           "covariances": {"kind": "compound_symmetry", "rho": -1.0 / 11.0},
           "reps": 100, "seed": 1}
    f = tmp_path / "exp.json"
    f.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(f), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert "compound_symmetry covariance is not positive definite" in err
    assert "at p=12" in err


def test_design_factorizations_run_once_per_design(monkeypatch):
    """Two engine builds and a nonzero true_q: one Cholesky of
    L(A'A)^{-1}L', one SVD of each group's block, and one solve with B'B
    for dense B and R; the structured profile design solves none."""
    structured = profile_parallelism((12, 15, 9), 6).design
    dense = DesignSpec(A=structured.A, B=structured.B, L=structured.L, R=structured.R,
                       group_sizes=structured.group_sizes)
    B_gram = dense.B.T @ dense.B
    cholesky, solve, svd = np.linalg.cholesky, np.linalg.solve, np.linalg.svd
    for design, b_gram_solves in ((structured, 0), (dense, 1)):
        calls = {"cholesky": 0, "b_gram_solve": 0, "svd": []}

        def counting_cholesky(a, *args, **kwargs):
            calls["cholesky"] += 1
            return cholesky(a, *args, **kwargs)

        def counting_solve(a, b, *args, **kwargs):
            if np.shape(a) == B_gram.shape and np.array_equal(a, B_gram):
                calls["b_gram_solve"] += 1
            return solve(a, b, *args, **kwargs)

        def counting_svd(a, *args, **kwargs):
            calls["svd"].append(np.shape(a)[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        TraceTestEngine(design)
        TraceTestEngine(design)
        assert true_q(canonical_direction(design), design) > 0.0
        assert calls["cholesky"] == 1
        assert calls["b_gram_solve"] == b_gram_solves
        assert [calls["svd"].count(n) for n in design.group_sizes] == [1, 1, 1]


def _bits(summary) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(summary))


def test_factors_first_computed_at_two_blas_threads_change_no_bits():
    """The design factors and projections are computed at one BLAS thread
    whoever asks first: a design first used by run_test at two BLAS threads
    gives the same Monte Carlo summary as a fresh one.  The covariate design
    (a covariate on every row, so u = N) has a build whose N x N products
    change bits with the thread count."""
    api = openblas_threads()
    if api is None:
        pytest.skip("the thread count of numpy's BLAS is not reachable")
    get, set_ = api

    def growth():
        return growth_curve((150, 200), 40, 2).design

    def covariate():
        base = one_way_manova((150, 150), 40).design
        z = np.random.default_rng(1).normal(size=(base.N, 1))
        return DesignSpec(A=np.hstack([base.A, z]), B=base.B,
                          L=np.hstack([base.L, np.zeros((1, 1))]), R=base.R,
                          group_sizes=base.group_sizes)

    p = 40
    sigmas = (np.eye(p), CovarianceSpec(kind="ar1", rho=0.5).matrix(p))
    dist = ErrorDistribution.elliptical_t(8.0)
    for make in (growth, covariate):
        used = make()
        model = MeanModel(np.zeros((used.k, used.q)), sigmas)
        X = np.random.default_rng(3).normal(size=(used.N, p))
        before = get()
        set_(2)
        try:
            run_test(GroupedSample(X, used.group_sizes), used)
        finally:
            set_(before)
        assert {"_a_factors", "group_bases", "a_basis", "projections"} <= set(vars(used))
        warm = monte_carlo(used, model, dist, reps=100, seed=7, threads=2)
        fresh = monte_carlo(make(), model, dist, reps=100, seed=7, threads=2)
        assert _bits(warm) == _bits(fresh), make.__name__
