import dataclasses
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gmanova import (
    ConfigError,
    CovarianceSpec,
    ErrorDistribution,
    MeanModel,
    TraceTestEngine,
    calibrate_signal_ray,
    canonical_direction,
    monte_carlo,
    one_way_manova,
    sigma_full,
    true_q,
)
from gmanova.blas import openblas_threads
from gmanova.simulate import _substream, resolve_threads


class TestErrorDistributions:
    def test_rademacher_support_and_moments(self):
        Z = ErrorDistribution.rademacher().sample(_substream(3, 0), 500, 8)
        assert np.all(np.isin(Z, (-1.0, 1.0)))
        assert np.all(Z ** 4 == 1.0)

    def test_gaussian_component_variance(self):
        Z = ErrorDistribution.gaussian().sample(_substream(4, 0), 10_000, 50)
        var = Z.var(axis=0, ddof=1)
        se = var.std(ddof=1) / np.sqrt(50)
        assert abs(var.mean() - 1.0) <= 3 * se

    def test_gamma_standardization(self):
        dist = ErrorDistribution.standardized_gamma(1.0)
        Z = dist.sample(_substream(5, 0), 200_000, 2)
        assert abs(Z.mean()) <= 0.01
        assert abs(Z.var() - 1.0) <= 0.02
        m4 = Z ** 4  # the fourth central moment of the exponential is 9
        assert abs(m4.mean() - 9.0) <= 3 * m4.std() / np.sqrt(m4.size)

    def test_elliptical_t_kurtosis(self):
        df = 8.0
        dist = ErrorDistribution.elliptical_t(df)
        z = dist.sample(_substream(6, 0), 400_000, 1).ravel()
        assert abs(z.var() - 1.0) <= 0.02
        m4 = z ** 4
        se = m4.std() / np.sqrt(m4.size)
        target = 3.0 * (df - 2.0) / (df - 4.0)
        assert abs(m4.mean() - target) <= 3 * se

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ErrorDistribution.elliptical_t(4.0)
        with pytest.raises(ConfigError):
            ErrorDistribution.standardized_gamma(0.0)
        with pytest.raises(ConfigError):
            ErrorDistribution(kind="cauchy")


class TestCovarianceSpecs:
    @pytest.mark.parametrize("spec", [
        CovarianceSpec(kind="identity"),
        CovarianceSpec(kind="identity", scale=3.0),
        CovarianceSpec(kind="compound_symmetry", rho=0.4),
        CovarianceSpec(kind="ar1", rho=0.5, scale=2.0),
        CovarianceSpec(kind="diagonal_ramp", lo=0.5, hi=4.0),
    ], ids=lambda s: f"{s.kind}/{s.scale}")
    def test_sqrt_squares_back(self, spec):
        p = 12
        root = spec.sqrt(p)
        assert np.max(np.abs(root @ root - spec.matrix(p))) <= 1e-10

    def test_ar1_entries(self):
        S = CovarianceSpec(kind="ar1", rho=0.5).matrix(3)
        assert np.allclose(S, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])

    def test_compound_symmetry_pd_gate(self):
        # rho below -1/(p-1) is a valid parameter but not PD at this p
        spec = CovarianceSpec(kind="compound_symmetry", rho=-0.5)
        with pytest.raises(ConfigError):
            spec.sqrt(5)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            CovarianceSpec(kind="ar1", rho=1.5)
        with pytest.raises(ConfigError):
            CovarianceSpec(kind="diagonal_ramp", lo=-1.0, hi=2.0)
        with pytest.raises(ConfigError):
            CovarianceSpec(kind="identity", scale=0.0)


class TestMonteCarlo:
    def _setup(self, p=12, sizes=(8, 8)):
        design = one_way_manova(sizes, p).design
        model = MeanModel(np.zeros((len(sizes), p)),
                          tuple(np.eye(p) for _ in sizes))
        return design, model

    def test_deterministic_given_seed(self):
        design, model = self._setup()
        dist = ErrorDistribution.gaussian()
        s1 = monte_carlo(design, model, dist, reps=120, seed=9, threads=1)
        s2 = monte_carlo(design, model, dist, reps=120, seed=9, threads=1)
        assert s1 == s2

    def test_thread_count_does_not_change_results(self):
        design, model = self._setup()
        dist = ErrorDistribution.standardized_gamma(2.0)
        serial = monte_carlo(design, model, dist, reps=150, seed=10, threads=1)
        parallel = monte_carlo(design, model, dist, reps=150, seed=10, threads=3)
        assert serial == parallel

    @pytest.mark.parametrize("sizes, p", [((30, 60), 300), ((150, 160), 150)],
                             ids=["r>N", "r<=N"])
    def test_thread_count_does_not_change_ar1_results(self, sizes, p):
        """An AR1 covariance colours the draws with a GEMM whose bits, at
        these sizes, depend on the BLAS thread count; the Gram (r > N) and
        scatter (r <= N) forms of the variance step both run."""
        design, _ = self._setup(p, sizes)
        model = MeanModel(np.zeros((len(sizes), p)),
                          (np.eye(p), CovarianceSpec(kind="ar1", rho=0.6).matrix(p)))
        dist = ErrorDistribution.elliptical_t(9.0)
        runs = [monte_carlo(design, model, dist, reps=120, seed=21, threads=t)
                for t in (1, 2, 3)]
        assert _bits(runs[0]) == _bits(runs[1]) == _bits(runs[2])

    def test_null_calibration_coarse(self):
        design, model = self._setup(p=20, sizes=(10, 10))
        summary = monte_carlo(design, model, ErrorDistribution.gaussian(),
                              reps=800, seed=11, threads=1)
        assert abs(summary.rejection_rate - 0.05) <= 0.05
        assert summary.predicted_power == pytest.approx(0.05, abs=1e-12)
        assert summary.degenerate_count == 0
        assert summary.mc_standard_error == pytest.approx(
            np.sqrt(summary.rejection_rate * (1 - summary.rejection_rate) / 800))

    def test_strong_signal_rejects(self):
        design, model0 = self._setup(p=16, sizes=(10, 10))
        theta = calibrate_signal_ray(design, canonical_direction(design),
                                     model0.sigmas, snr=8.0)
        model = MeanModel(theta, model0.sigmas)
        summary = monte_carlo(design, model, ErrorDistribution.gaussian(),
                              reps=200, seed=12, threads=1)
        assert summary.rejection_rate >= 0.95

    def test_reps_floor(self):
        design, model = self._setup()
        with pytest.raises(ConfigError):
            monte_carlo(design, model, ErrorDistribution.gaussian(), reps=50, seed=1)

    def test_distribution_count_must_match_groups(self):
        design, model = self._setup()
        with pytest.raises(ConfigError):
            monte_carlo(design, model,
                        [ErrorDistribution.gaussian()] * 3, reps=100, seed=1)


class TestSignalCalibration:
    def test_hits_target_snr(self):
        design = one_way_manova((8, 8), 10).design
        sigmas = (np.eye(10), 2.0 * np.eye(10))
        for snr in (0.5, 1.0, 2.5):
            theta = calibrate_signal_ray(design, canonical_direction(design),
                                         sigmas, snr)
            q = true_q(theta, design)
            sigma2, _ = sigma_full(MeanModel(theta, sigmas), design)
            assert q / np.sqrt(sigma2) == pytest.approx(snr, rel=1e-10)

    def test_zero_target(self):
        design = one_way_manova((8, 8), 6).design
        theta = calibrate_signal_ray(design, canonical_direction(design),
                                     (np.eye(6),) * 2, 0.0)
        assert np.all(theta == 0.0)

    def test_canonical_direction_excites_null(self):
        design = one_way_manova((8, 8, 8), 6).design
        assert true_q(canonical_direction(design), design) > 0.0

    def test_annihilated_direction_rejected(self):
        design = one_way_manova((8, 8), 6).design
        with pytest.raises(ConfigError):
            calibrate_signal_ray(design, np.ones((2, 6)), (np.eye(6),) * 2, 1.0)

    def test_overflowing_target_is_a_config_error(self):
        """snr = 1e200 overflows the quadratic's snr^4 term: the error names
        theta.snr instead of letting an OverflowError escape."""
        design = one_way_manova((6, 6), 3).design
        with pytest.raises(ConfigError, match="theta.snr 1e\\+200 is too large"):
            calibrate_signal_ray(design, canonical_direction(design),
                                 (np.eye(3),) * 2, 1e200)


class TestFiniteMeanModel:
    @pytest.mark.parametrize("theta, sigma, named", [
        (np.array([[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]]), np.eye(3), "theta"),
        (np.zeros((2, 3)), np.diag([1.0, np.nan, 1.0]), "covariance 1"),
    ], ids=["theta", "covariance"])
    def test_non_finite_entries_rejected(self, theta, sigma, named):
        with pytest.raises(ConfigError, match=f"{named} has non-finite entries"):
            MeanModel(theta, (np.eye(3), sigma))

    def test_overflowing_class_means_rejected(self):
        """Entries of 1e308 are finite, but the squares of the class means
        overflow: monte_carlo and sigma_full name theta instead of
        reporting a summary of infinities."""
        design = one_way_manova((6, 6), 3).design
        model = MeanModel(np.full((2, 3), 1e308), (np.eye(3),) * 2)
        with pytest.raises(ConfigError, match="theta is too large"):
            sigma_full(model, design)
        with pytest.raises(ConfigError, match="theta is too large"):
            monte_carlo(design, model, ErrorDistribution.gaussian(), reps=100, seed=1,
                        threads=1)


class TestThreads:
    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("GMANOVA_THREADS", "3")
        assert resolve_threads(None) == 3
        monkeypatch.setenv("GMANOVA_THREADS", "0")
        assert resolve_threads(None) >= 1
        monkeypatch.setenv("GMANOVA_THREADS", "junk")
        with pytest.raises(ConfigError):
            resolve_threads(None)
        monkeypatch.delenv("GMANOVA_THREADS")
        assert resolve_threads(2) == 2
        with pytest.raises(ConfigError):
            resolve_threads(-1)

    def test_auto_counts_the_cpus_of_the_affinity_mask(self, monkeypatch):
        """0 (or GMANOVA_THREADS=0) means the CPUs this process may run on,
        not every CPU of the machine."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7}, raising=False)
        assert resolve_threads(0) == 3
        monkeypatch.setenv("GMANOVA_THREADS", "0")
        assert resolve_threads(None) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_threads(0) == 64


def _replications(X) -> int:
    """The number of replications in one statistics call: one matrix or a
    stack of them."""
    return X.shape[0] if X.ndim == 3 else 1


def _bits(summary) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(summary))


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count, set to 2 for the test
    and restored after it."""
    api = openblas_threads()
    if api is None:
        pytest.skip("the thread count of numpy's BLAS is not reachable")
    get, set_ = api
    before = get()
    set_(2)
    yield get, set_
    set_(before)


class TestBlasThreads:
    def _run(self, threads, reps=100):
        design = one_way_manova((8, 8), 6).design
        model = MeanModel(np.zeros((2, 6)), (np.eye(6),) * 2)
        return monte_carlo(design, model, ErrorDistribution.gaussian(),
                           reps=reps, seed=3, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pinned_during_the_call_and_restored(self, blas_threads, monkeypatch, threads):
        get, _ = blas_threads
        seen = []
        statistics = TraceTestEngine.statistics

        def spy(self, X):
            seen.extend([get()] * _replications(X))
            return statistics(self, X)

        monkeypatch.setattr(TraceTestEngine, "statistics", spy)
        self._run(threads)
        assert len(seen) == 100 and set(seen) == {1}
        assert get() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_restored_after_a_raise(self, blas_threads, monkeypatch, threads):
        get, _ = blas_threads

        def boom(self, X):
            assert get() == 1
            raise RuntimeError("boom")

        monkeypatch.setattr(TraceTestEngine, "statistics", boom)
        with pytest.raises(RuntimeError, match="boom"):
            self._run(threads)
        assert get() == 2

    def test_overlapping_calls_share_the_pin(self, blas_threads, monkeypatch):
        """A call that ends while a later one still runs leaves the count
        pinned for it, and the last call to end restores the count."""
        get, _ = blas_threads
        later = threading.Thread(target=self._run, args=(1,))
        later_pinned, first_done = threading.Event(), threading.Event()
        seen = {"first": [], "later": []}
        statistics = TraceTestEngine.statistics

        def spy(self, X):
            if threading.current_thread() is later:
                later_pinned.set()
                first_done.wait(timeout=60)
                seen["later"].extend([get()] * _replications(X))
            else:
                if not later_pinned.is_set():
                    later.start()
                    later_pinned.wait(timeout=60)
                seen["first"].extend([get()] * _replications(X))
            return statistics(self, X)

        monkeypatch.setattr(TraceTestEngine, "statistics", spy)
        self._run(1)
        after_first = get()
        first_done.set()
        later.join(timeout=60)
        assert not later.is_alive()
        assert after_first == 1
        assert len(seen["first"]) == len(seen["later"]) == 100
        assert set(seen["first"]) == set(seen["later"]) == {1}
        assert get() == 2

    def test_concurrent_calls_match_serial_calls(self, blas_threads, monkeypatch):
        """Four callers on two cores, with a short switch interval: every
        replication runs pinned, the summaries equal serial ones, and the
        count is restored once all calls end."""
        get, _ = blas_threads
        p = 150
        design = one_way_manova((30, 60), p).design
        model = MeanModel(np.zeros((2, p)),
                          (np.eye(p), CovarianceSpec(kind="ar1", rho=0.5).matrix(p)))
        dist = ErrorDistribution.gaussian()
        seeds = (31, 32, 33, 34)
        serial = [_bits(monte_carlo(design, model, dist, reps=100, seed=s, threads=2))
                  for s in seeds]
        seen = []
        statistics = TraceTestEngine.statistics

        def spy(self, X):
            seen.extend([get()] * _replications(X))
            return statistics(self, X)

        monkeypatch.setattr(TraceTestEngine, "statistics", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                futures = [pool.submit(monte_carlo, design, model, dist, reps=100,
                                       seed=s, threads=2) for s in seeds]
                concurrent = [_bits(f.result(timeout=120)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial
        assert len(seen) == 100 * len(seeds) and set(seen) == {1}
        assert get() == 2


class TestInPlaceDraws:
    @pytest.mark.parametrize("dist", [
        ErrorDistribution.gaussian(), ErrorDistribution.elliptical_t(7.0),
        ErrorDistribution.standardized_gamma(1.5), ErrorDistribution.rademacher(),
    ], ids=lambda d: d.kind)
    def test_out_matches_a_fresh_array(self, dist):
        fresh = dist.sample(np.random.default_rng(5), 7, 9)
        out = np.full((10, 9), np.nan)
        got = dist.sample(np.random.default_rng(5), 7, 9, out=out[2:9])
        assert np.shares_memory(got, out)
        assert np.array_equal(out[2:9], fresh)
        assert np.all(np.isnan(out[:2])) and np.all(np.isnan(out[9:]))
