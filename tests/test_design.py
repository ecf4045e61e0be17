import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmanova import (
    DesignError,
    DesignSpec,
    NoBalancingSolution,
    build_omega,
    build_projections,
    growth_curve,
    hypothesis_projector,
    numerical_rank,
    one_way_manova,
    profile_parallelism,
    projector,
    row_compressor,
    two_way_manova,
)
from gmanova.design import RANK_RTOL, _balancing_weights, _rank
from gmanova.oracle import dense_min_norm_solve

SCENARIOS = [
    one_way_manova((4, 5, 6), 7),
    two_way_manova(2, 2, (4, 4, 5, 4), 6, "interaction"),
    profile_parallelism((5, 5), 6),
    growth_curve((6, 4, 5), 9, 2),
]


class TestProjector:
    def test_mean_projector(self):
        P = projector(np.ones((2, 1)))
        assert np.allclose(P, np.full((2, 2), 0.5), atol=1e-14)

    def test_identity_columns(self):
        assert np.allclose(projector(np.eye(2)), np.eye(2), atol=1e-14)

    def test_one_way_blocks_exact(self):
        sizes = (3, 4, 5)
        A = one_way_manova(sizes, 2).design.A
        P = projector(A)
        expected = np.zeros((12, 12))
        off = 0
        for n in sizes:
            expected[off:off + n, off:off + n] = 1.0 / n
            off += n
        assert np.array_equal(P, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotent_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(9, rng.integers(1, 6)))
        P = projector(M)
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        assert np.max(np.abs(P - P.T)) == 0.0

    def test_rank_deficient_columns(self):
        M = np.column_stack([np.ones(5), np.ones(5)])
        P = projector(M)
        assert np.allclose(P, np.full((5, 5), 0.2), atol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DesignError):
            projector(np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(DesignError):
            projector(np.array([[1.0], [np.nan]]))


class TestHypothesisProjector:
    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_two_sample_closed_form(self, n):
        design = one_way_manova((n, n), 4).design
        pi_h, h_diag = hypothesis_projector(design, np.arange(design.N))
        v = np.concatenate([np.full(n, 1.0 / n), np.full(n, -1.0 / n)])
        expected = (n / 2.0) * np.outer(v, v)
        assert np.max(np.abs(pi_h - expected)) <= 1e-12
        assert np.allclose(h_diag, 1.0 / (2 * n), atol=1e-12)

    def test_full_rank_l_gives_hat_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(8, 3))
        design = DesignSpec(A=A, B=np.eye(4), L=rng.normal(size=(3, 3)),
                            R=np.eye(4), group_sizes=(8,))
        pi_h, _ = hypothesis_projector(design, np.arange(design.N))
        assert np.max(np.abs(pi_h - projector(A))) <= 1e-10

    def test_one_way_rank(self):
        design = one_way_manova((3, 3, 3), 5).design
        pi_h, _ = hypothesis_projector(design, np.arange(design.N))
        assert abs(np.trace(pi_h) - 2.0) <= 1e-10
        assert np.max(np.abs(pi_h @ pi_h - pi_h)) <= 1e-10


class TestRowCompressor:
    def test_identity_design(self):
        design = DesignSpec(A=np.ones((4, 1)), B=np.eye(3), L=np.eye(1),
                            R=np.eye(3), group_sizes=(4,))
        assert row_compressor(design) is None
        assert np.array_equal(build_projections(design).compressor, np.eye(3))

    def test_coordinate_selection(self):
        R = np.hstack([np.eye(2), np.zeros((2, 3))])
        design = DesignSpec(A=np.ones((4, 1)), B=np.eye(5), L=np.eye(1),
                            R=R, group_sizes=(4,))
        assert np.allclose(row_compressor(design), R, atol=1e-12)

    def test_gram_is_projection(self):
        rng = np.random.default_rng(11)
        design = DesignSpec(A=np.ones((5, 1)), B=rng.normal(size=(6, 3)),
                            L=np.eye(1), R=np.eye(3), group_sizes=(5,))
        P = row_compressor(design)
        gram = P.T @ P
        w = np.linalg.eigvalsh(gram)
        assert np.all((np.abs(w) <= 1e-10) | (np.abs(w - 1.0) <= 1e-10))
        assert abs(np.trace(gram) - 3.0) <= 1e-10


class TestBalancingWeights:
    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_two_sample_closed_form(self, n):
        design = one_way_manova((n, n), 4).design
        proj = build_projections(design)
        assert np.allclose(proj.d, 1.0 / (2 * (n - 1)), atol=1e-10)

    def test_no_design_identity_system(self):
        h = np.array([0.3, 0.1, 0.6])
        d = _balancing_weights(np.zeros((3, 3)), h, np.ones(3))[0]
        assert np.allclose(d, h, atol=1e-12)

    def test_unbalanced_one_way_constant_within_group(self):
        design = one_way_manova((4, 6), 3).design
        proj = build_projections(design)
        d = proj.d
        assert np.ptp(d[:4]) <= 1e-12 and np.ptp(d[4:]) <= 1e-12
        C = np.eye(10) - proj.pi_a
        d_ref, resid = dense_min_norm_solve(C * C, proj.h_diag)
        assert resid <= 1e-12
        assert np.allclose(d, d_ref, atol=1e-10)

    def test_unsolvable_raises(self):
        # rank-one squared centering matrix with a right side off its range
        A = np.array([[1.0], [2.0]])
        pi_a = projector(A)
        with pytest.raises(NoBalancingSolution):
            _balancing_weights(pi_a, np.array([0.2, 0.8]), np.ones(2))


class TestOmega:
    def test_two_sample_entries(self):
        n = 3
        design = one_way_manova((n, n), 4).design
        proj = build_projections(design)
        within = 1.0 / (2 * (n - 1))
        across = -1.0 / (2 * n)
        expected = np.block([
            [np.full((n, n), within), np.full((n, n), across)],
            [np.full((n, n), across), np.full((n, n), within)],
        ])
        np.fill_diagonal(expected, 0.0)
        assert np.max(np.abs(proj.omega - expected)) <= 1e-10

    def test_zero_weights_pass_through(self):
        pi_h = np.array([[0.0, 0.4], [0.4, 0.0]])
        omega = build_omega(pi_h, np.zeros((2, 2)), np.zeros(2), np.ones(2))
        assert np.array_equal(omega, pi_h)

    def test_inconsistent_weights_rejected(self):
        pi_h = np.eye(3) * 0.5
        with pytest.raises(NoBalancingSolution):
            build_omega(pi_h, np.zeros((3, 3)), np.zeros(3), np.ones(3))


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
class TestProjectionInvariants:
    def test_omega_structure(self, scenario):
        design = scenario.design
        proj = build_projections(design)
        omega = proj.omega
        assert np.max(np.abs(omega - omega.T)) == 0.0
        assert np.max(np.abs(np.diag(omega))) == 0.0
        C = np.eye(design.N) - proj.pi_a
        recon = proj.pi_h - (C * proj.d) @ C
        off = ~np.eye(design.N, dtype=bool)
        assert np.max(np.abs((omega - recon)[off])) <= 1e-10
        assert proj.balancing_residual <= 1e-8

    def test_projection_ranks(self, scenario):
        design = scenario.design
        proj = build_projections(design)
        for P in (proj.pi_a, proj.pi_h):
            assert np.max(np.abs(P @ P - P)) <= 1e-10
            assert np.max(np.abs(P - P.T)) == 0.0
        assert abs(np.trace(proj.pi_h) - design.ell) <= 1e-8
        assert abs(np.trace(proj.compressor @ proj.compressor.T) - design.r) <= 1e-8


class TestDesignSpecValidation:
    def test_rank_deficient_a(self):
        A = np.column_stack([np.ones(6), np.ones(6)])
        with pytest.raises(DesignError):
            DesignSpec(A=A, B=np.eye(2), L=np.eye(2), R=np.eye(2),
                       group_sizes=(6,))

    def test_size_mismatch(self):
        with pytest.raises(DesignError):
            DesignSpec(A=np.ones((6, 1)), B=np.eye(2), L=np.eye(1),
                       R=np.eye(2), group_sizes=(3, 4))

    def test_r_exceeds_q(self):
        with pytest.raises(DesignError):
            DesignSpec(A=np.ones((4, 1)), B=np.eye(2), L=np.eye(1),
                       R=np.vstack([np.eye(2), np.eye(2)[::-1]]),
                       group_sizes=(4,))

    def test_rank_threshold(self):
        assert numerical_rank(np.diag([1.0, 1e-14])) == 1
        assert numerical_rank(np.diag([1.0, 1e-6])) == 2


# Diagonal entries relative to the largest: zeros, ordinary values, and
# values a few ulps either side of the rank cutoff.
_near_cutoff = st.integers(-4, 4).map(
    lambda k: RANK_RTOL * (1.0 + k * np.finfo(float).eps))
_relative = st.one_of(st.just(0.0), st.floats(1e-16, 1.0), _near_cutoff)


class TestDiagonalRank:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rel=st.lists(_relative, min_size=1, max_size=8),
           signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=9, max_size=9),
           exponent=st.integers(-100, 100),
           extra_rows=st.integers(0, 3),
           transpose=st.booleans())
    def test_verdict_matches_the_svd(self, rel, signs, exponent, extra_rows, transpose):
        """The sorted |diagonal| gives the SVD's verdict, with zeros and
        entries at the cutoff, at any scale and shape."""
        n = len(rel) + 1
        d = np.array([1.0] + rel) * np.array(signs[:n]) * 10.0 ** exponent
        M = np.zeros((n + extra_rows, n))
        M[np.arange(n), np.arange(n)] = d
        if transpose:
            M = M.T
        assert numerical_rank(M) == _rank(np.linalg.svd(M, compute_uv=False))

    def test_reads_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert numerical_rank(np.eye(600)) == 600
        assert numerical_rank(np.diag([2.0, 0.0, -1e-12, 3.0])) == 2
        assert numerical_rank(np.zeros((3, 2))) == 0

    def test_off_diagonal_entry_takes_the_svd(self):
        M = np.diag([1.0, 1.0])
        M[0, 1] = 1.0
        M[1, 1] = 1.0
        assert numerical_rank(M) == 2
        M[1, 0] = 1.0
        assert numerical_rank(M) == 1
