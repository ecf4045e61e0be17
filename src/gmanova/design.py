"""Design-derived geometry for the bilateral mean-matrix test.

Everything in this module is a deterministic function of the known design:
the between-group matrix A, the within-observation matrix B, and the
hypothesis pair (L, R).  The products are the hat projection of A, the
hypothesis projection, the row compressor mapping observations into the
hypothesis-relevant within-space, the balancing weights that cancel the
diagonal bias of the naive quadratic form, and the zero-diagonal weight
matrix Omega that makes the trace statistic unbiased, both dense and in the
factored form the statistic is evaluated through.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGroupError, DesignError, NoBalancingSolution

# Numerical policy: ranks from singular values with a relative cutoff,
# positive-definiteness gates on relative eigenvalue floors, and a relative
# residual gate on the balancing-weight solve.
RANK_RTOL = 1e-10
EIG_FLOOR = 1e-12
BALANCE_RTOL = 1e-8
OMEGA_DIAG_TOL = 1e-8


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise DesignError(f"{name} must be a nonempty 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DesignError(f"{name} contains non-finite entries")
    return M


def _rank(s: np.ndarray) -> int:
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def numerical_rank(M) -> int:
    """Rank of a matrix from its singular values, relative cutoff RANK_RTOL."""
    return _rank(np.linalg.svd(np.atleast_2d(np.asarray(M, dtype=float)),
                               compute_uv=False))


def range_basis(M) -> np.ndarray:
    """Orthonormal basis of the column space of M: its thin left singular
    vectors up to the numerical rank (zero columns for an all-zero M)."""
    U, s, _ = np.linalg.svd(np.atleast_2d(np.asarray(M, dtype=float)),
                            full_matrices=False)
    return U[:, :_rank(s)]


def residual_basis(A_i, *, group: int = 0) -> np.ndarray:
    """range_basis of a group's design block, for a group that has residuals.

    Raises DegenerateGroupError when the block has as many independent
    columns as rows (N_i <= k_i): the group then has no residual, and its
    rows leave the balancing system without a solution.
    """
    U = range_basis(A_i)
    n_i, k_i = U.shape
    if n_i <= k_i:
        raise DegenerateGroupError(
            group, f"needs N_i > k_i (N_i={n_i}, k_i={k_i})")
    return U


@dataclass(frozen=True, eq=False)
class DesignSpec:
    """Known design of the model X = A Theta B' + E and the hypothesis
    L Theta R' = 0, together with the group partition of the N rows.

    A is N x k (rank k), B is p x q (rank q), L is ell x k (rank ell),
    R is r x q (rank r), and group_sizes gives the g block sizes of the
    row partition of A/X (observations in one group share a covariance).
    """

    A: np.ndarray
    B: np.ndarray
    L: np.ndarray
    R: np.ndarray
    group_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "L", _as_matrix(self.L, "L"))
        object.__setattr__(self, "R", _as_matrix(self.R, "R"))
        sizes = tuple(int(n) for n in self.group_sizes)
        if len(sizes) == 0 or any(n < 1 for n in sizes):
            raise DesignError(f"group sizes must be positive, got {sizes}")
        object.__setattr__(self, "group_sizes", sizes)

        N, k = self.A.shape
        p, q = self.B.shape
        ell = self.L.shape[0]
        r = self.R.shape[0]
        if sum(sizes) != N:
            raise DesignError(
                f"group sizes sum to {sum(sizes)} but A has {N} rows")
        if self.L.shape[1] != k:
            raise DesignError(f"L has {self.L.shape[1]} columns, expected k={k}")
        if self.R.shape[1] != q:
            raise DesignError(f"R has {self.R.shape[1]} columns, expected q={q}")
        if not (ell <= k <= N):
            raise DesignError(f"need ell <= k <= N, got ell={ell}, k={k}, N={N}")
        if not (r <= q <= p):
            raise DesignError(f"need r <= q <= p, got r={r}, q={q}, p={p}")
        for name, M, want in (("A", self.A, k), ("B", self.B, q),
                              ("L", self.L, ell), ("R", self.R, r)):
            got = numerical_rank(M)
            if got != want:
                raise DesignError(f"{name} must have full rank {want}, got {got}")

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.B.shape[0]

    @property
    def q(self) -> int:
        return self.B.shape[1]

    @property
    def ell(self) -> int:
        return self.L.shape[0]

    @property
    def r(self) -> int:
        return self.R.shape[0]

    @property
    def g(self) -> int:
        return len(self.group_sizes)

    @cached_property
    def group_offsets(self) -> tuple[int, ...]:
        offs = np.concatenate(([0], np.cumsum(self.group_sizes[:-1])))
        return tuple(int(o) for o in offs)

    def group_slice(self, i: int) -> slice:
        off = self.group_offsets[i]
        return slice(off, off + self.group_sizes[i])

    def A_block(self, i: int) -> np.ndarray:
        return self.A[self.group_slice(i)]


@dataclass(frozen=True, eq=False)
class OmegaFactors:
    """The zero-diagonal omega in factored form,

        omega = W'W - C diag(d) C - diag(e),   C = I - QQ',

    with W the ell x N root of pi_h, Q the N x k orthonormal basis of A, d
    the balancing weights and e = h - (C o C) d the balancing residual, so
    that the diagonal of omega is exactly zero.  No N x N matrix is formed.
    """

    w: np.ndarray
    q: np.ndarray
    d: np.ndarray
    e: np.ndarray

    def quadratic_form(self, Y) -> float:
        """tr(Y' omega Y) = ||W Y||^2 - sum_i d_i ||(C Y)_i||^2
        - sum_i e_i ||y_i||^2, in O(N (ell + k) r) for an N x r matrix Y."""
        WY = self.w @ Y
        CY = self.q @ (self.q.T @ Y)
        np.subtract(Y, CY, out=CY)
        return float(np.einsum("ij,ij->", WY, WY)
                     - self.d @ np.einsum("ij,ij->i", CY, CY)
                     - self.e @ np.einsum("ij,ij->i", Y, Y))


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Design geometry consumed by the statistic: the hat projection pi_a,
    the hypothesis projection pi_h with its diagonal, the row compressor,
    the balancing weights d, the zero-diagonal weight matrix omega, and
    omega's factors, which the statistic is evaluated through."""

    pi_a: np.ndarray
    pi_h: np.ndarray
    h_diag: np.ndarray
    compressor: np.ndarray
    d: np.ndarray
    omega: np.ndarray
    balancing_residual: float
    factors: OmegaFactors


def projector(M) -> np.ndarray:
    """Symmetric idempotent projector onto the column space of M.

    Pseudo-inverse based, so rank-deficient M (e.g. a per-group block of a
    larger design) is allowed.  An all-zero M is rejected.
    """
    M = _as_matrix(M, "M")
    G = M.T @ M
    G = (G + G.T) / 2.0
    w, V = np.linalg.eigh(G)
    wmax = w[-1] if w.size else 0.0
    if wmax <= 0.0:
        raise DesignError("projector of an all-zero matrix is undefined")
    keep = w > (RANK_RTOL ** 2) * wmax
    W = M @ V[:, keep]
    P = (W / w[keep]) @ W.T
    return (P + P.T) / 2.0


def _hypothesis_root(design: DesignSpec) -> np.ndarray:
    """The ell x N matrix W = c^{-1} L (A'A)^{-1} A' with W'W the hypothesis
    projection, c the Cholesky factor of L(A'A)^{-1}L'."""
    A, L = design.A, design.L
    G = A.T @ A
    try:
        GinvLT = np.linalg.solve(G, L.T)
    except np.linalg.LinAlgError as exc:
        raise DesignError(f"A'A is numerically singular: {exc}") from exc
    GL = L @ GinvLT
    GL = (GL + GL.T) / 2.0
    try:
        c = np.linalg.cholesky(GL)
    except np.linalg.LinAlgError as exc:
        raise DesignError("L(A'A)^{-1}L' is numerically singular") from exc
    return np.linalg.solve(c, (A @ GinvLT).T)


def hypothesis_projector(design: DesignSpec) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto the span of A(A'A)^{-1}L', with its diagonal.

    The returned matrix has rank equal to the number of rows of L.
    """
    W = _hypothesis_root(design)
    pi_h = W.T @ W
    pi_h = (pi_h + pi_h.T) / 2.0
    return pi_h, np.diag(pi_h).copy()


def row_compressor(design: DesignSpec) -> np.ndarray:
    """The r x p compressor {R(B'B)^{-1}R'}^{-1/2} R (B'B)^{-1} B'.

    Its Gram matrix is a projection of rank r.  The inverse square root is
    taken through a symmetric eigendecomposition.
    """
    B, R = design.B, design.R
    G = B.T @ B
    try:
        GinvRT = np.linalg.solve(G, R.T)  # q x r
    except np.linalg.LinAlgError as exc:
        raise DesignError(f"B'B is numerically singular: {exc}") from exc
    M = R @ GinvRT
    M = (M + M.T) / 2.0
    w, V = np.linalg.eigh(M)
    if w[0] <= EIG_FLOOR * max(w[-1], 0.0) or w[-1] <= 0.0:
        raise DesignError(
            f"R(B'B)^{{-1}}R' is not positive definite (min eigenvalue {w[0]:.3e})")
    inv_sqrt = (V / np.sqrt(w)) @ V.T
    return inv_sqrt @ (GinvRT.T @ B.T)


def _balancing_weights(pi_a: np.ndarray, h_diag) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-norm solve with the relative residual gate; returns the
    weights d, the residual vector h - (C o C) d and its relative norm."""
    n = pi_a.shape[0]
    C = np.eye(n) - pi_a
    C = C * C
    h = np.asarray(h_diag, dtype=float).ravel()
    if h.shape[0] != n:
        raise DesignError(f"h_diag has length {h.shape[0]}, expected {n}")
    d, *_ = np.linalg.lstsq(C, h, rcond=None)
    scale = float(np.linalg.norm(h))
    e = h - C @ d
    resid = float(np.linalg.norm(e))
    rel = resid / scale if scale > 0.0 else resid
    if rel > BALANCE_RTOL:
        raise NoBalancingSolution(
            f"balancing system has no solution: relative residual {rel:.3e} "
            f"exceeds {BALANCE_RTOL:g}")
    return d, e, rel


def solve_balancing_weights(pi_a, h_diag) -> np.ndarray:
    """Minimum-norm least-squares weights d for the entrywise-squared
    centering system [(I - pi_a) o (I - pi_a)] d = h_diag.

    Raises NoBalancingSolution when the relative residual exceeds
    BALANCE_RTOL; the bias-corrected statistic is undefined for such designs.
    """
    return _balancing_weights(_as_matrix(pi_a, "pi_a"), h_diag)[0]


def build_omega(pi_h, pi_a, d) -> np.ndarray:
    """Weight matrix pi_h - (I - pi_a) diag(d) (I - pi_a), symmetric with an
    exactly zero diagonal.

    A diagonal residue above OMEGA_DIAG_TOL means the supplied weights do not
    solve the balancing system and raises NoBalancingSolution.
    """
    pi_h = _as_matrix(pi_h, "pi_h")
    pi_a = _as_matrix(pi_a, "pi_a")
    d = np.asarray(d, dtype=float).ravel()
    n = pi_a.shape[0]
    C = np.eye(n) - pi_a
    omega = pi_h - (C * d) @ C
    omega = (omega + omega.T) / 2.0
    worst = float(np.max(np.abs(np.diag(omega)))) if n else 0.0
    if worst > OMEGA_DIAG_TOL:
        raise NoBalancingSolution(
            f"omega diagonal residue {worst:.3e} exceeds {OMEGA_DIAG_TOL:g}; "
            "balancing weights are inconsistent with the design")
    np.fill_diagonal(omega, 0.0)
    return omega


def build_projections(design: DesignSpec) -> ProjectionSet:
    """Assemble every design-derived matrix the test needs.

    Raises DegenerateGroupError, naming the group, when a group has no
    residual, and otherwise NoBalancingSolution when the design does not
    admit balancing weights within tolerance.
    """
    for i in range(design.g):
        residual_basis(design.A_block(i), group=i)
    pi_a = projector(design.A)
    pi_h, h_diag = hypothesis_projector(design)
    compressor = row_compressor(design)
    d, e, rel = _balancing_weights(pi_a, h_diag)
    omega = build_omega(pi_h, pi_a, d)
    factors = OmegaFactors(w=_hypothesis_root(design), q=range_basis(design.A),
                           d=d, e=e)
    return ProjectionSet(pi_a=pi_a, pi_h=pi_h, h_diag=h_diag,
                         compressor=compressor, d=d, omega=omega,
                         balancing_residual=rel, factors=factors)


def omega_sq_block_sums(omega, group_sizes) -> np.ndarray:
    """g x g sums of omega o omega over the blocks of the group partition;
    every variance functional of the statistic contracts against these."""
    omega = np.asarray(omega, dtype=float)
    offs = np.concatenate(([0], np.cumsum(group_sizes)[:-1]))
    return np.add.reduceat(np.add.reduceat(omega * omega, offs, axis=0), offs, axis=1)
