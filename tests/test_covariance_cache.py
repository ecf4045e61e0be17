"""The per-model Monte Carlo set-up: the covariance cache, the hypothesis
Grams on the design, the exact zero-mean shortcuts and the run's log
record."""

import dataclasses
import json
import logging
import sys
import threading

import numpy as np
import pytest

from gmanova import (
    ConfigError,
    CovarianceSpec,
    ErrorDistribution,
    MeanModel,
    canonical_direction,
    covariance,
    model_diagnostics,
    monte_carlo,
    one_way_manova,
    sigma_full,
    true_q,
)
from gmanova.cli import main

DISTRIBUTIONS = [ErrorDistribution.gaussian(), ErrorDistribution.elliptical_t(8.0),
                 ErrorDistribution.standardized_gamma(1.5), ErrorDistribution.rademacher()]
COVARIANCES = [CovarianceSpec(kind="identity", scale=2.0),
               CovarianceSpec(kind="compound_symmetry", rho=0.3),
               CovarianceSpec(kind="ar1", rho=0.6),
               CovarianceSpec(kind="diagonal_ramp", lo=0.5, hi=3.0)]


@pytest.fixture(autouse=True)
def cold_cache():
    covariance.clear_cache()
    yield
    covariance.clear_cache()


def _bits(summary) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(summary))


def _model(spec: CovarianceSpec, p: int, theta=None) -> MeanModel:
    theta = np.zeros((2, p)) if theta is None else theta
    return MeanModel(theta, (np.eye(p), spec.matrix(p)))


class TestCache:
    def test_entries_are_read_only(self):
        root = CovarianceSpec(kind="ar1", rho=0.5).sqrt(6)
        with pytest.raises(ValueError):
            root[0, 0] = 1.0
        S = CovarianceSpec(kind="diagonal_ramp", lo=1.0, hi=2.0).matrix(4)
        (entry,), _, _ = covariance.lookup([S])
        _, scale = entry.colouring(S)
        with pytest.raises(ValueError):
            scale[0] = 1.0
        full = CovarianceSpec(kind="diagonal_ramp", lo=1.0, hi=2.0).sqrt(4)
        assert not full.flags.writeable

    def test_each_distinct_array_is_hashed_once(self):
        S, T = np.eye(3), 2.0 * np.eye(3)
        entries, hits, misses = covariance.lookup([S, S, T])
        assert (hits, misses) == (0, 2)
        assert entries[0] is entries[1] is not entries[2]
        # an equal matrix in another array reads the same entry
        entries2, hits, misses = covariance.lookup([S.copy(), T])
        assert (hits, misses) == (2, 0)
        assert entries2 == [entries[0], entries[2]]

    def test_bounded_least_recently_used_first_out(self):
        first = np.eye(2)
        (kept,), _, _ = covariance.lookup([first])
        for i in range(covariance.CACHE_SIZE - 1):
            covariance.lookup([np.full((2, 2), float(i))])
            covariance.lookup([first])
        covariance.lookup([np.full((2, 2), -1.0)])
        assert len(covariance._CACHE) == covariance.CACHE_SIZE
        (again,), hits, _ = covariance.lookup([first])
        assert hits == 1 and again is kept
        _, hits, _ = covariance.lookup([np.full((2, 2), 0.0)])
        assert hits == 0


    def test_concurrent_lookups_share_one_entry(self):
        """Eight threads look up equal matrices at a short switch interval,
        over fifty cold rounds: each matrix gets one entry, and the hits and
        misses add up.  Without the lock, about one round in ten breaks
        this."""
        mats = [np.full((3, 3), float(i)) for i in range(covariance.CACHE_SIZE)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                covariance.clear_cache()
                results = []
                start = threading.Barrier(8, timeout=60)

                def work():
                    own = [m.copy() for m in mats]
                    start.wait()
                    results.append(covariance.lookup(own))

                threads = [threading.Thread(target=work) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads) and len(results) == 8
                first = results[0][0]
                assert all(a is b for entries, _, _ in results
                           for a, b in zip(entries, first))
                assert sum(misses for _, _, misses in results) == len(mats)
                assert sum(hits for _, hits, _ in results) == 7 * len(mats)
        finally:
            sys.setswitchinterval(interval)


class TestColdAndWarm:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spec", COVARIANCES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: d.kind)
    def test_warm_summary_equals_cold(self, dist, spec, threads):
        p = 9
        design = one_way_manova((7, 8), p).design
        model = _model(spec, p)
        cold = monte_carlo(design, model, dist, reps=100, seed=4, threads=threads)
        warm = monte_carlo(design, _model(spec, p), dist, reps=100, seed=4,
                           threads=threads)
        assert _bits(warm) == _bits(cold)

    def test_sqrt_warms_what_the_run_reads(self):
        """A root computed outside a run, at any BLAS thread count, is the
        root a cold run computes (at p = 300 the bits of an eigh-based root
        depend on the BLAS thread count)."""
        p = 300
        spec = CovarianceSpec(kind="ar1", rho=0.5, scale=3.0)
        design = one_way_manova((30, 40), p).design
        dist = ErrorDistribution.elliptical_t(8.0)
        cold = monte_carlo(design, _model(spec, p), dist, reps=100, seed=2, threads=2)
        covariance.clear_cache()
        spec.sqrt(p)
        warm = monte_carlo(design, _model(spec, p), dist, reps=100, seed=2, threads=2)
        assert _bits(warm) == _bits(cold)

    def test_edit_in_place_reads_no_stale_entry(self):
        p = 8
        design = one_way_manova((7, 8), p).design
        dist = ErrorDistribution.gaussian()
        model = _model(CovarianceSpec(kind="ar1", rho=0.5), p)
        monte_carlo(design, model, dist, reps=100, seed=6, threads=1)
        S = model.sigmas[1]
        S[:] = CovarianceSpec(kind="compound_symmetry", rho=0.4).matrix(p)
        edited = monte_carlo(design, model, dist, reps=100, seed=6, threads=1)
        covariance.clear_cache()
        cold = monte_carlo(design, MeanModel(model.theta, (np.eye(p), S.copy())),
                           dist, reps=100, seed=6, threads=1)
        assert _bits(edited) == _bits(cold)

    def test_not_positive_definite_raises_the_same_error_every_time(self):
        p = 5
        spec = CovarianceSpec(kind="compound_symmetry", rho=-0.5)
        design = one_way_manova((6, 6), p).design
        model = _model(spec, p)
        calls = {
            "monte_carlo": (ValueError, lambda: monte_carlo(
                design, model, ErrorDistribution.gaussian(), reps=100, seed=1, threads=1)),
            "sigma_full": (ValueError, lambda: sigma_full(model, design)),
            "sqrt": (ConfigError, lambda: spec.sqrt(p)),
        }
        for name, (error, call) in calls.items():
            messages = []
            for _ in range(2):
                with pytest.raises(error) as info:
                    call()
                messages.append(str(info.value))
            assert messages[0] == messages[1], name
            assert "not positive definite" in messages[0], name
        with pytest.raises(ValueError, match="covariance 1 is not positive definite"):
            model_diagnostics(model, design)


class TestSimulateVerb:
    def test_one_eigh_per_distinct_covariance(self, tmp_path, monkeypatch):
        p = 7
        cfg = {"scenario": {"name": "one-way", "group_sizes": [6, 6, 6], "p": p},
               "covariances": [{"kind": "ar1", "rho": 0.5}, {"kind": "ar1", "rho": 0.3},
                               {"kind": "ar1", "rho": 0.5}],
               "reps": 100, "seed": 3}
        f = tmp_path / "exp.json"
        f.write_text(json.dumps(cfg))
        eigh = np.linalg.eigh
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert main(["simulate", "--config", str(f), "--threads", "1"]) == 0
        assert shapes.count((p, p)) == 2

    @pytest.mark.parametrize("dist, route", [
        ({"kind": "elliptical_t", "df": 8.0}, "eigenbasis"),
        ({"kind": "standardized_gamma", "shape": 1.5}, "root")])
    def test_only_the_root_route_forms_a_root(self, tmp_path, dist, route):
        """The simulate verb gates each covariance through its cache entry's
        verdict; the eigenbasis route reads no root, so its run leaves the
        one entry without one, while the root route forms it."""
        cfg = {"scenario": {"name": "one-way", "group_sizes": [6, 6], "p": 7},
               "distributions": dist, "covariances": {"kind": "ar1", "rho": 0.5},
               "reps": 100, "seed": 3}
        f = tmp_path / "exp.json"
        f.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(f), "--threads", "1"]) == 0
        (entry,) = covariance._CACHE.values()
        assert (entry._root is None) == (route == "eigenbasis")


class TestDesignWork:
    def test_hypothesis_grams_cached_on_the_design(self):
        design = one_way_manova((5, 6, 7), 4).design
        GA, GB = design.hypothesis_grams
        assert design.hypothesis_grams[0] is GA
        A, B, L, R = design.A, design.B, design.L, design.R
        assert np.allclose(GA, L @ np.linalg.inv(A.T @ A) @ L.T, atol=1e-12)
        assert np.allclose(GB, R @ np.linalg.inv(B.T @ B) @ R.T, atol=1e-12)
        assert not GA.flags.writeable and not GB.flags.writeable

    def test_zero_mean_skips_the_hypothesis_solves(self):
        design = one_way_manova((5, 6), 4).design
        assert true_q(np.zeros((2, 4)), design) == 0.0
        assert "hypothesis_grams" not in vars(design)
        assert true_q(canonical_direction(design), design) > 0.0
        assert "hypothesis_grams" in vars(design)

    def test_zero_mean_variance_has_no_mean_terms(self):
        p = 6
        design = one_way_manova((5, 6), p).design
        sigma2, sigma0_sq = sigma_full(_model(COVARIANCES[2], p), design)
        assert sigma2 == sigma0_sq > 0.0
        sigma2, sigma0_sq = sigma_full(
            _model(COVARIANCES[2], p, canonical_direction(design)), design)
        assert sigma2 > sigma0_sq


    def test_symmetric_covariances_are_read_in_place(self, monkeypatch):
        """_compressed_covariance returns an exactly symmetric covariance
        itself under a square compressor, and keeps the symmetry verdict on
        its cache entry; an SPD-plus-skew one is read as its symmetric part,
        with the same variance.  sigma_full and model_diagnostics both go
        through it, and model_diagnostics hands the covariances themselves
        to assumption_diagnostics."""
        from gmanova import trace_test

        p = 5
        design = one_way_manova((6, 7, 8), p).design
        P = design.projections.compressor
        rng = np.random.default_rng(8)
        sym = []
        for _ in range(3):
            F = rng.normal(size=(p, p))
            sym.append(F @ F.T / p + np.eye(p))
        asym = [S + (K - K.T) for S, K in zip(sym, rng.normal(size=(3, p, p)))]
        route = trace_test._compressed_covariance
        for S, entry in zip(sym, covariance.lookup(sym)[0]):
            assert route(S, P, entry) is S
            assert entry.is_symmetric(S)
        for S, entry in zip(asym, covariance.lookup(asym)[0]):
            assert np.array_equal(route(S, P, entry), (S + S.T) / 2.0)
            assert not entry.is_symmetric(S)

        calls, handed = [], []
        monkeypatch.setattr(trace_test, "_compressed_covariance",
                            lambda S, P, entry: calls.append(S) or route(S, P, entry))
        diagnostics = trace_test.assumption_diagnostics
        monkeypatch.setattr(trace_test, "assumption_diagnostics",
                            lambda psis, *args, **kwargs:
                            handed.append(psis) or diagnostics(psis, *args, **kwargs))
        zero = np.zeros((design.k, design.q))
        _, fast = sigma_full(MeanModel(zero, tuple(sym)), design)
        _, slow = sigma_full(MeanModel(zero, tuple(asym)), design)
        assert len(calls) == 6
        assert slow == pytest.approx(fast, rel=1e-13)
        model_diagnostics(MeanModel(zero, tuple(sym)), design)
        assert len(calls) == 9
        assert len(handed) == 1 and all(psi is S for psi, S in zip(handed[0], sym))


class TestLogging:
    def test_one_info_record_per_call(self, caplog):
        p = 6
        design = one_way_manova((6, 6), p).design
        model = _model(COVARIANCES[2], p)
        with caplog.at_level(logging.INFO, logger="gmanova.simulate"):
            monte_carlo(design, model, ErrorDistribution.gaussian(), reps=100, seed=1,
                        threads=2)
            monte_carlo(design, model, ErrorDistribution.gaussian(), reps=100, seed=2,
                        threads=1)
        records = [r for r in caplog.records if r.name == "gmanova.simulate"]
        assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
        first, second = (r.getMessage() for r in records)
        assert "0 hits 2 misses" in first and "threads=2" in first
        assert "2 hits 0 misses" in second and "threads=1" in second
        for message in (first, second):
            assert "set-up" in message and "100 replications in" in message
            assert "reps/s" in message

    def test_silent_by_default(self):
        handlers = logging.getLogger("gmanova").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
