import numpy as np
import pytest
from scipy.linalg import sqrtm
from scipy.special import ndtr

from gmanova import (
    DesignSpec,
    GroupedSample,
    MeanModel,
    TraceTestEngine,
    assumption_diagnostics,
    asymptotic_power,
    build_projections,
    estimate_variance,
    growth_curve,
    model_diagnostics,
    one_way_manova,
    run_test,
    sigma_full,
    statistic_t,
    true_q,
)
from gmanova.oracle import t_by_decomposition
from gmanova.trace_test import _decide

from dense_forms import one_row_classes


def _regression_design():
    # single-group design with a covariate; its a2 estimate can go negative
    t = np.linspace(0.0, 1.0, 5)
    A = np.column_stack([np.ones(5), t])
    return DesignSpec(A=A, B=np.eye(2), L=np.array([[0.0, 1.0]]),
                      R=np.eye(2), group_sizes=(5,))


class TestStatistic:
    def test_noise_free_null_gives_zero(self):
        design = one_way_manova((4, 4), 3).design
        theta = np.tile([1.0, 2.0, 3.0], (2, 1))  # equal rows satisfy the null
        X = design.A @ theta @ design.B.T
        proj = build_projections(design)
        assert statistic_t(X, proj.compressor, proj.omega) == pytest.approx(0.0, abs=1e-10)

    def test_noise_free_equals_q(self):
        rng = np.random.default_rng(5)
        scenario = growth_curve((5, 6), 8, 2)
        design = scenario.design
        theta = rng.normal(size=(design.k, design.q))
        X = design.A @ theta @ design.B.T
        proj = build_projections(design)
        t = statistic_t(X, proj.compressor, proj.omega)
        assert t == pytest.approx(true_q(theta, design), rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_decomposition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scenario = one_way_manova((5, 6), 7)
        design = scenario.design
        theta = rng.normal(size=(design.k, design.q))
        X = design.A @ theta @ design.B.T + rng.normal(size=(design.N, design.p))
        proj = build_projections(design)
        fast = statistic_t(X, proj.compressor, proj.omega)
        slow = t_by_decomposition(X, design)
        assert fast == pytest.approx(slow, rel=1e-8)


class TestDecision:
    def test_degenerate_indicator(self):
        z, p, reject, degenerate = _decide(1.7, -0.3, 0.05)
        assert degenerate and not reject
        assert z == 0.0 and p == 0.5

    def test_reject_at_two(self):
        z, p, reject, degenerate = _decide(2.0, 1.0, 0.05)
        assert not degenerate and reject
        assert z == pytest.approx(2.0)
        assert p == pytest.approx(1.0 - ndtr(2.0), rel=1e-12)

    def test_boundary_quantile(self):
        # z just below the 95% point must not reject
        assert not _decide(1.6448, 1.0, 0.05)[2]
        assert _decide(1.6450, 1.0, 0.05)[2]


class TestRunTest:
    def test_matches_engine(self):
        rng = np.random.default_rng(12)
        design = one_way_manova((6, 7), 5).design
        X = rng.normal(size=(design.N, design.p))
        report = run_test(GroupedSample(X, design.group_sizes), design, 0.05)
        engine = TraceTestEngine(design, 0.05)
        fast = engine.test_matrix(X)
        assert report.t_stat == pytest.approx(fast.t_stat, rel=1e-10)
        assert report.sigma0_sq_hat == pytest.approx(fast.sigma0_sq_hat, rel=1e-10)
        assert report.z == pytest.approx(fast.z, rel=1e-10)
        assert report.reject == fast.reject

    def test_degenerate_variance_report(self):
        design = _regression_design()
        X = np.random.default_rng(22).normal(size=(5, 2))
        report = run_test(GroupedSample(X, (5,)), design, 0.05)
        assert report.sigma0_sq_hat <= 0.0
        assert report.degenerate and not report.reject
        assert report.z == 0.0 and report.p_value == 0.5

    def test_pvalue_in_unit_interval(self):
        rng = np.random.default_rng(2)
        design = one_way_manova((5, 5), 4).design
        for _ in range(10):
            X = rng.normal(size=(design.N, design.p))
            r = run_test(GroupedSample(X, design.group_sizes), design)
            assert 0.0 <= r.p_value <= 1.0
            assert r.reject == (r.z > 1.6448536269514722) and not r.degenerate

    def test_diagnostics_attached(self):
        rng = np.random.default_rng(3)
        design = one_way_manova((5, 5), 4).design
        X = rng.normal(size=(design.N, design.p))
        report = run_test(GroupedSample(X, design.group_sizes), design,
                          diagnostics=True)
        assert report.diagnostics is not None
        assert report.diagnostics.heuristic
        assert report.diagnostics.a3_ratio == 0.0
        assert report.diagnostics.group_imbalance == 1.0


class TestPopulationFunctionals:
    def test_null_theta_gives_zero_q_and_equal_variances(self):
        design = one_way_manova((4, 5), 3).design
        theta = np.tile([0.5, -1.0, 2.0], (2, 1))
        assert true_q(theta, design) == pytest.approx(0.0, abs=1e-12)
        model = MeanModel(theta, (np.eye(3), np.eye(3)))
        sigma2, sigma0 = sigma_full(model, design)
        assert sigma2 == pytest.approx(sigma0, rel=1e-12)

    @pytest.mark.parametrize("n,p", [(3, 4), (10, 50)])
    def test_two_sample_sigma0(self, n, p):
        design = one_way_manova((n, n), p).design
        model = MeanModel(np.zeros((2, p)), (np.eye(p), np.eye(p)))
        sigma2, sigma0 = sigma_full(model, design)
        assert sigma0 == pytest.approx(p * (2 * n - 1) / (n - 1), rel=1e-10)
        assert sigma2 == pytest.approx(sigma0, rel=1e-10)

    def test_q_matches_frobenius_oracle(self):
        rng = np.random.default_rng(9)
        scenario = growth_curve((5, 7), 9, 2)
        design = scenario.design
        theta = np.outer(rng.normal(size=design.k), rng.normal(size=design.q))
        GA = design.L @ np.linalg.inv(design.A.T @ design.A) @ design.L.T
        GB = design.R @ np.linalg.inv(design.B.T @ design.B) @ design.R.T
        half_a = np.real(sqrtm(np.linalg.inv(GA)))
        half_b = np.real(sqrtm(np.linalg.inv(GB)))
        frob = np.linalg.norm(half_a @ design.L @ theta @ design.R.T @ half_b) ** 2
        assert true_q(theta, design) == pytest.approx(frob, rel=1e-10)

    def test_non_pd_covariance_rejected(self):
        design = one_way_manova((4, 4), 3).design
        bad = np.diag([1.0, -0.5, 1.0])
        with pytest.raises(ValueError):
            sigma_full(MeanModel(np.zeros((2, 3)), (np.eye(3), bad)), design)


class TestAsymptoticPower:
    def test_no_signal_gives_level(self):
        assert asymptotic_power(0.0, 2.0, 2.0, 0.05) == pytest.approx(0.05, abs=1e-12)

    def test_signal_at_quantile_gives_half(self):
        from scipy.special import ndtri
        s = 3.0
        q = float(ndtri(0.95)) * np.sqrt(s)
        assert asymptotic_power(q, s, s, 0.05) == pytest.approx(0.5, abs=1e-12)

    def test_large_signal_saturates(self):
        assert asymptotic_power(1e4, 1.0, 1.0, 0.05) == 1.0

    def test_invalid_variances(self):
        with pytest.raises(ValueError):
            asymptotic_power(1.0, 0.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            asymptotic_power(1.0, 1.0, -1.0, 0.05)


class TestDiagnostics:
    def test_two_sample_weight_spread(self):
        design = one_way_manova((3, 3), 4).design
        proj = build_projections(design)
        psis = [np.eye(4), np.eye(4)]
        diag = assumption_diagnostics(psis, proj.weights)
        assert diag.rho_n == pytest.approx((1 / 4) ** 2 / (1 / 6) ** 2, rel=1e-10)

    def test_null_model_mean_ratio_zero(self):
        design = one_way_manova((4, 5), 3).design
        theta = np.tile([1.0, 0.0, -1.0], (2, 1))
        diag = model_diagnostics(MeanModel(theta, (np.eye(3), np.eye(3))), design)
        assert diag.a3_ratio == 0.0
        assert not diag.heuristic

    def test_alternative_model_mean_ratio_positive(self):
        design = one_way_manova((4, 5), 3).design
        theta = np.zeros((2, 3))
        theta[0, 0] = 2.0
        diag = model_diagnostics(MeanModel(theta, (np.eye(3), np.eye(3))), design)
        assert 0.0 < diag.a3_ratio <= 1.0

    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_identity_fourth_order_ratio(self, p):
        design = one_way_manova((4, 4, 4), p).design
        proj = build_projections(design)
        psis = [np.eye(p)] * 3
        diag = assumption_diagnostics(psis, proj.weights)
        assert diag.a2_ratio == pytest.approx(p / (3 * 3 * p) ** 2, rel=1e-10)

    def test_all_zero_weights_undefined(self):
        with pytest.raises(ValueError):
            assumption_diagnostics([np.eye(2)], one_row_classes(np.zeros((3, 3)), (3,)))

    def test_group_imbalance(self):
        design = one_way_manova((4, 8), 2).design
        proj = build_projections(design)
        diag = assumption_diagnostics([np.eye(2)] * 2, proj.weights)
        assert diag.group_imbalance == 2.0

    @pytest.mark.parametrize("column", ["covariate", "binary"])
    def test_group_imbalance_from_class_sizes(self, column):
        """Groups holding several row classes, one-row classes (u = N) for
        a continuous covariate and two-row-class groups for a binary one:
        the group sizes come from the class sizes and groups of the class
        weights, through run_test and model_diagnostics alike."""
        sizes = (12, 15, 10)
        base = one_way_manova(sizes, 3).design
        rng = np.random.default_rng(4)
        if column == "covariate":
            x = rng.normal(size=base.N)
        else:
            x = np.concatenate([np.arange(n) % 2 for n in sizes]).astype(float)
        design = DesignSpec(A=np.column_stack([base.A, x]), B=base.B,
                            L=np.hstack([base.L, np.zeros((base.ell, 1))]), R=base.R,
                            group_sizes=sizes)
        classes = design.projections.weights.classes
        assert classes.first.size == (design.N if column == "covariate" else 2 * design.g)
        want = max(design.group_sizes) / min(design.group_sizes)
        X = rng.normal(size=(design.N, design.p))
        report = run_test(GroupedSample(X, sizes), design, diagnostics=True)
        assert report.diagnostics.group_imbalance == want
        model = MeanModel(np.zeros((design.k, design.q)), (np.eye(3),) * 3)
        assert model_diagnostics(model, design).group_imbalance == want


class TestDualEstimationPaths:
    def test_engine_agrees_with_module_functions(self):
        rng = np.random.default_rng(41)
        scenario = growth_curve((7, 6, 8), 10, 3)
        design = scenario.design
        engine = TraceTestEngine(design)
        X = rng.normal(size=(design.N, design.p)) + 0.5
        t_fast, a2_fast, b_fast, s0_fast = engine.statistics(X)
        proj = build_projections(design)
        est = estimate_variance(GroupedSample(X, design.group_sizes), design)
        assert t_fast == pytest.approx(
            statistic_t(X, proj.compressor, proj.omega), rel=1e-12)
        assert np.allclose(a2_fast, est.a2, rtol=1e-10)
        assert np.allclose(b_fast, est.b, rtol=1e-10)
        assert s0_fast == pytest.approx(est.sigma0_sq, rel=1e-10)
