import numpy as np
import pytest

from gmanova import (
    ConfigError,
    DegenerateGroupError,
    EstimatorUndefinedError,
    GroupedSample,
    a2_hat,
    b_hat,
    build_projections,
    estimate_variance,
    group_residual_scatter,
    one_way_manova,
    projector,
    sigma0_hat,
    tau_coefficients,
    v_hat,
)
from gmanova.oracle import (
    mc_moment_oracle,
    one_way_a2_permutation,
    one_way_a2_reference,
    one_way_tau_reference,
)

ONES5 = np.ones((5, 1))


class TestGroupResidualScatter:
    def test_zero_residuals(self):
        # group size 4 keeps the mean projection exact in binary arithmetic
        X = np.tile([1.0, -2.0, 3.0], (4, 1))
        S, Q, k = group_residual_scatter(X, np.ones((4, 1)), np.eye(3))
        assert k == 1
        assert np.max(np.abs(S)) == 0.0 and Q == 0.0

    def test_one_way_fit_is_group_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 4))
        centered = X - X.mean(axis=0)
        S, Q, _ = group_residual_scatter(X, np.ones((7, 1)), np.eye(4))
        assert np.allclose(S, centered.T @ centered / 6.0, atol=1e-12)
        assert Q == pytest.approx(np.sum(np.sum(centered ** 2, axis=1) ** 2) / 6.0)

    def test_scatter_mean_is_identity(self):
        # E[S] = I for standard normal rows, identity compressor
        n, p = 20, 10

        def diag_stat(X):
            S, _, _ = group_residual_scatter(X, np.ones((n, 1)), np.eye(p))
            return float(np.trace(S)) / p

        def offdiag_stat(X):
            S, _, _ = group_residual_scatter(X, np.ones((n, 1)), np.eye(p))
            return float(S[0, 1])

        sampler = lambda rng: rng.standard_normal((n, p))
        mean, se = mc_moment_oracle(diag_stat, sampler, reps=5000, seed=77)
        assert abs(mean - 1.0) <= 3 * se
        mean, se = mc_moment_oracle(offdiag_stat, sampler, reps=5000, seed=78)
        assert abs(mean) <= 3 * se

    def test_too_small_group(self):
        with pytest.raises(DegenerateGroupError):
            group_residual_scatter(np.ones((2, 3)), np.eye(2), np.eye(3), group=4)


class TestTauCoefficients:
    def test_one_way_n5(self):
        pia = projector(ONES5)
        t1, t2, t3 = tau_coefficients(pia, 5, 1)
        assert t1 == pytest.approx(3.2, abs=1e-12)
        assert t2 == pytest.approx(2.08, abs=1e-12)
        assert t3 == pytest.approx(3.6, abs=1e-12)
        # the derived coefficient from the raw traces
        assert 3.0 / 16.0 * (24.0 * 2.08 - 3.0 * 10.24) == pytest.approx(3.6)

    def test_no_design(self):
        n = 6
        t1, t2, t3 = tau_coefficients(np.zeros((n, n)), n, 0)
        assert t1 == pytest.approx(n) and t2 == pytest.approx(n)
        assert t3 == pytest.approx((n - 1) / n ** 2 * (n * (n + 2) * n - 3 * n * n))

    def test_minimum_group_size(self):
        pia = projector(np.ones((4, 1)))
        _, _, t3 = tau_coefficients(pia, 4, 1)
        assert t3 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_one_way_closed_forms(self, n):
        pia = projector(np.ones((n, 1)))
        got = tau_coefficients(pia, n, 1)
        want = one_way_tau_reference(n)
        assert np.allclose(got, want, rtol=1e-12)

    def test_tau3_vanishes(self):
        # a ones-column design with 3 observations makes the denominator zero
        with pytest.raises(EstimatorUndefinedError):
            tau_coefficients(projector(np.ones((3, 1))), 3, 1, group=2)

    def test_group_too_small(self):
        with pytest.raises(DegenerateGroupError):
            tau_coefficients(projector(np.ones((2, 1))), 2, 1)


class TestA2Hat:
    def test_zero_data(self):
        tau = tau_coefficients(projector(ONES5), 5, 1)
        assert a2_hat(np.zeros((3, 3)), 0.0, tau, 5, 1) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_one_way_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 6, 3
        X = rng.normal(size=(n, p))
        S, Q, k = group_residual_scatter(X, np.ones((n, 1)), np.eye(p))
        tau = tau_coefficients(projector(np.ones((n, 1))), n, k)
        general = a2_hat(S, Q, tau, n, k)
        reference = one_way_a2_reference(S, Q, n)
        assert general == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_permutation_form(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, p = 6, 3
        X = rng.normal(size=(n, p))
        S, Q, k = group_residual_scatter(X, np.ones((n, 1)), np.eye(p))
        tau = tau_coefficients(projector(np.ones((n, 1))), n, k)
        assert a2_hat(S, Q, tau, n, k) == pytest.approx(
            one_way_a2_permutation(X), rel=1e-9)

    def test_unbiased_general_design(self):
        # regression-style group design, AR1 covariance, nonzero mean
        n, p = 14, 6
        t = np.linspace(0.0, 1.0, n)
        A_i = np.column_stack([np.ones(n), t])
        idx = np.arange(p)
        sigma = 0.3 ** np.abs(idx[:, None] - idx[None, :])
        w, V = np.linalg.eigh(sigma)
        root = (V * np.sqrt(w)) @ V.T
        true_a2 = float(np.sum(sigma * sigma))
        tau = tau_coefficients(projector(A_i), n, 2)

        def stat(X):
            S, Q, k = group_residual_scatter(X, A_i, np.eye(p))
            return a2_hat(S, Q, tau, n, k)

        def sample(rng):
            return rng.standard_normal((n, p)) @ root + np.outer(t, np.ones(p))

        mean, se = mc_moment_oracle(stat, sample, reps=4000, seed=31)
        assert abs(mean - true_a2) <= 3 * se


class TestBHat:
    def test_identity(self):
        assert b_hat(np.eye(4), np.eye(4)) == pytest.approx(4.0)

    def test_small_example(self):
        assert b_hat(np.eye(2), np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(4.0)

    def test_unbiased(self):
        n, p = 10, 6

        def stat(X):
            S1, _, _ = group_residual_scatter(X[:n], np.ones((n, 1)), np.eye(p))
            S2, _, _ = group_residual_scatter(X[n:], np.ones((n, 1)), np.eye(p))
            return b_hat(S1, S2)

        mean, se = mc_moment_oracle(stat, lambda rng: rng.standard_normal((2 * n, p)),
                                    reps=5000, seed=55)
        assert abs(mean - p) <= 3 * se

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            b_hat(np.eye(2), np.eye(3))


class TestVHatSigma0:
    def test_block_assembly(self):
        b = np.array([[0.0, 2.0], [2.0, 0.0]])
        v = v_hat([3.0, 5.0], b, (2, 2))
        expected = np.array([[3, 3, 2, 2], [3, 3, 2, 2],
                             [2, 2, 5, 5], [2, 2, 5, 5]], dtype=float)
        assert np.array_equal(v, expected)

    @pytest.mark.parametrize("n,p", [(3, 4), (5, 4), (10, 50)])
    def test_two_sample_closed_form(self, n, p):
        design = one_way_manova((n, n), p).design
        proj = build_projections(design)
        coef = np.full((2, 2), float(p))
        v = v_hat([float(p), float(p)], coef, (n, n))
        sigma0 = sigma0_hat(proj.omega, v)
        assert sigma0 == pytest.approx(p * (2 * n - 1) / (n - 1), rel=1e-10)

    def test_zero_omega(self):
        assert sigma0_hat(np.zeros((4, 4)), np.ones((4, 4))) == 0.0


class TestEstimateVariance:
    def test_pipeline_invariants(self):
        rng = np.random.default_rng(8)
        scenario = one_way_manova((6, 7, 5), 4)
        design = scenario.design
        X = rng.normal(size=(design.N, design.p))
        est = estimate_variance(GroupedSample(X, design.group_sizes), design)
        for S in est.s:
            assert np.min(np.linalg.eigvalsh(S)) >= -1e-10
        assert np.all(est.q >= 0.0)
        assert np.array_equal(est.b, est.b.T)
        assert np.all(est.a2 > 0.0)  # guaranteed for ones-column group designs
        v = v_hat(est.a2, est.b, design.group_sizes)
        assert est.sigma0_sq == pytest.approx(
            2.0 * np.sum(build_projections(design).omega ** 2 * v), rel=1e-12)

    def test_group_sizes_must_match(self):
        design = one_way_manova((4, 4), 3).design
        sample = GroupedSample(np.zeros((8, 3)) + np.arange(3), (5, 3))
        with pytest.raises(ConfigError):
            estimate_variance(sample, design)

    def test_undefined_for_tiny_groups(self):
        design = one_way_manova((3, 5), 2).design
        rng = np.random.default_rng(1)
        sample = GroupedSample(rng.normal(size=(8, 2)), (3, 5))
        with pytest.raises(EstimatorUndefinedError) as err:
            estimate_variance(sample, design)
        assert err.value.group == 0

    def test_zero_design_block_group(self):
        # a group whose design block is all zero has mean zero by model;
        # its residual maker is the identity (rank-0 projector)
        from gmanova import DesignSpec
        A = np.zeros((9, 1))
        A[:4, 0] = 1.0
        design = DesignSpec(A=A, B=np.eye(3), L=np.eye(1), R=np.eye(3),
                            group_sizes=(4, 5))
        rng = np.random.default_rng(6)
        X = rng.normal(size=(9, 3))
        est = estimate_variance(GroupedSample(X, (4, 5)), design)
        assert est.k[0] == 1 and est.k[1] == 0
        raw = X[4:]
        assert np.allclose(est.s[1], raw.T @ raw / 5.0, atol=1e-12)
