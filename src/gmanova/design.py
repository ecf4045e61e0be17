"""Design-derived geometry for the bilateral mean-matrix test.

Everything in this module is a deterministic function of the known design:
the between-group matrix A, the within-observation matrix B, and the
hypothesis pair (L, R).  B and R are dense matrices or Structured ones: an
identity, or first differences for profile parallelism.  The package reads
a Structured response side by its structure, so the test forms no p x p
array from it; DesignSpec.B, DesignSpec.R and ProjectionSet.compressor form
the dense matrices on first read, for readers outside it (the dense
oracles, `gmanova diagnose`, a written manifest).  The products are the hat
projection of A, the hypothesis projection, the row compressor mapping
observations into the hypothesis-relevant within-space (in the thin form
of row_compressor: None, a reflection vector or a column-major P, which
this module builds and estimators.compress alone applies), the balancing
weights that cancel the
diagonal bias of the naive quadratic form, and the zero-diagonal weight
matrix Omega that makes the trace statistic unbiased.  Rows of one group
with equal rows of A form a row class; the projections, the weights and
Omega are constant on classes, so they are built between class
representatives (ClassWeights, through which Omega reads the model) and
kept in factored form (OmegaFactors, through which it reads data: T
from the centred rows' norms and K x K products with the groups' basis).
The variance estimate's design constants are cached here too
(DesignSpec.tau, ClassWeights.block_sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt

import numpy as np

from .blas import one_blas_thread
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


def positive_definite(w_min, w_max) -> bool:
    """The verdict of every positive-definiteness gate, from the smallest
    and largest eigenvalue: the largest is positive and the smallest exceeds
    EIG_FLOOR times it."""
    return bool(w_max > 0.0 and w_min > EIG_FLOOR * w_max)


def _rank(s: np.ndarray) -> int:
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def numerical_rank(M) -> int:
    """Rank of a matrix from its singular values, relative cutoff RANK_RTOL.

    The singular values of a diagonal matrix (every off-diagonal entry
    zero, such as an identity B or R) are its sorted absolute diagonal,
    read without an SVD.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    d = np.abs(np.diagonal(M))
    if np.count_nonzero(M) == np.count_nonzero(d) and np.all(np.isfinite(d)):
        return _rank(np.sort(d)[::-1])
    return _rank(np.linalg.svd(M, compute_uv=False))


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


@dataclass(frozen=True)
class Structured:
    """A response-side matrix given by its structure instead of its
    entries: kind "identity" is the p x p identity and kind "differences"
    the (p - 1) x p first differences, whose row j is e_j - e_(j+1).  Both
    have full row rank.  dense(m) forms the first m rows (all by default);
    the package reads the structure and forms no p x p array."""

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in ("identity", "differences"):
            raise DesignError(f"unknown structured matrix kind {self.kind!r}")
        if self.p < 1 + (self.kind == "differences"):
            raise DesignError(f"a {self.kind} matrix of p={self.p} coordinates has no rows")

    @property
    def shape(self) -> tuple[int, int]:
        return self.p - (self.kind == "differences"), self.p

    def dense(self, m: int | None = None) -> np.ndarray:
        M = np.eye(self.shape[0] if m is None else m, self.p)
        if self.kind == "differences":
            M -= np.eye(M.shape[0], self.p, k=1)
        return M


@dataclass(frozen=True, eq=False, init=False)
class DesignSpec:
    """Known design of the model X = A Theta B' + E and the hypothesis
    L Theta R' = 0, together with the group partition of the N rows.

    A is N x k (rank k), B is p x q (rank q), L is ell x k (rank ell),
    R is r x q (rank r), and group_sizes gives the g block sizes of the
    row partition of A/X (observations in one group share a covariance).
    B and R are dense matrices or Structured ones, kept in the form given
    (b_form, r_form).  A Structured identity B with a Structured R is the
    response side the package reads by its structure (response); the
    dense B and R are formed on first read, for readers outside it.
    Its factorizations and projections are computed once, read-only and at
    one BLAS thread, so their bits do not depend on which caller came first.
    """

    A: np.ndarray
    b_form: np.ndarray | Structured
    L: np.ndarray
    r_form: np.ndarray | Structured
    group_sizes: tuple[int, ...]

    def __init__(self, A, B, L, R, group_sizes):
        form = lambda M, name: M if isinstance(M, Structured) else _as_matrix(M, name)
        object.__setattr__(self, "A", _as_matrix(A, "A"))
        object.__setattr__(self, "b_form", form(B, "B"))
        object.__setattr__(self, "L", _as_matrix(L, "L"))
        object.__setattr__(self, "r_form", form(R, "R"))
        sizes = tuple(int(n) for n in group_sizes)
        if len(sizes) == 0 or any(n < 1 for n in sizes):
            raise DesignError(f"group sizes must be positive, got {sizes}")
        object.__setattr__(self, "group_sizes", sizes)

        N, k = self.A.shape
        p, q = self.b_form.shape
        ell = self.L.shape[0]
        r = self.r_form.shape[0]
        if sum(sizes) != N:
            raise DesignError(
                f"group sizes sum to {sum(sizes)} but A has {N} rows")
        if self.L.shape[1] != k:
            raise DesignError(f"L has {self.L.shape[1]} columns, expected k={k}")
        if self.r_form.shape[1] != q:
            raise DesignError(f"R has {self.r_form.shape[1]} columns, expected q={q}")
        if not (ell <= k <= N):
            raise DesignError(f"need ell <= k <= N, got ell={ell}, k={k}, N={N}")
        if not (r <= q <= p):
            raise DesignError(f"need r <= q <= p, got r={r}, q={q}, p={p}")
        for name, M, want in (("A", self.A, k), ("B", self.b_form, q),
                              ("L", self.L, ell), ("R", self.r_form, r)):
            got = (self.a_basis.shape[1] if M is self.A else
                   M.shape[0] if isinstance(M, Structured) else numerical_rank(M))
            if got != want:
                raise DesignError(f"{name} must have full rank {want}, got {got}")

    @property
    def response(self) -> str | None:
        """The kind of a Structured R when B is a Structured identity, which
        the package reads in place of B and R; None for the dense route."""
        if isinstance(self.b_form, Structured) and isinstance(self.r_form, Structured):
            return self.r_form.kind
        return None

    @cached_property
    def B(self) -> np.ndarray:
        return _dense(self.b_form)

    @cached_property
    def R(self) -> np.ndarray:
        return _dense(self.r_form)

    def mean(self, theta, rows=slice(None)) -> np.ndarray:
        """The mean A theta B' at the given rows of A; a structured B, the
        identity, is not multiplied."""
        M = self.A[rows] @ theta
        return M if self.response else M @ self.B.T

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.b_form.shape[0]

    @property
    def q(self) -> int:
        return self.b_form.shape[1]

    @property
    def ell(self) -> int:
        return self.L.shape[0]

    @property
    def r(self) -> int:
        return self.r_form.shape[0]

    @property
    def g(self) -> int:
        return len(self.group_sizes)

    @cached_property
    def group_offsets(self) -> tuple[int, ...]:
        offs = np.concatenate(([0], np.cumsum(self.group_sizes[:-1])))
        return tuple(int(o) for o in offs)

    @cached_property
    def a_basis(self) -> np.ndarray:
        """range_basis(A), the orthonormal Q with pi_a = QQ' and rank(A) columns."""
        with one_blas_thread():
            return _read_only(range_basis(self.A))

    @cached_property
    def _a_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(L(A'A)^{-1}L', hypothesis_root), from one solve with A'A."""
        A, L = self.A, self.L
        with one_blas_thread():
            try:
                GinvLT = np.linalg.solve(A.T @ A, L.T)
            except np.linalg.LinAlgError as exc:
                raise DesignError(f"A'A is numerically singular: {exc}") from exc
            GA = L @ GinvLT
            try:
                c = np.linalg.cholesky((GA + GA.T) / 2.0)
            except np.linalg.LinAlgError as exc:
                raise DesignError("L(A'A)^{-1}L' is numerically singular") from exc
            W = np.linalg.solve(c, (A @ GinvLT).T)
        return _read_only(GA), _read_only(W)

    @cached_property
    def _b_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """((B'B)^{-1}R', R(B'B)^{-1}R'), from one solve with B'B."""
        B, R = self.B, self.R
        with one_blas_thread():
            try:
                GinvRT = np.linalg.solve(B.T @ B, R.T)
            except np.linalg.LinAlgError as exc:
                raise DesignError(f"B'B is numerically singular: {exc}") from exc
            GB = R @ GinvRT
        return _read_only(GinvRT), _read_only(GB)

    @cached_property
    def hypothesis_grams(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(L(A'A)^{-1}L', R(B'B)^{-1}R'): the Grams of the hypothesis in the
        spaces of A and of B, the second None for a structured response,
        which trace_test.true_q reads in closed form."""
        return self._a_factors[0], None if self.response else self._b_factors[1]

    @property
    def hypothesis_root(self) -> np.ndarray:
        """The ell x N matrix W = c^{-1} L (A'A)^{-1} A' with W'W the
        hypothesis projection, c the Cholesky factor of L(A'A)^{-1}L'."""
        return self._a_factors[1]

    @cached_property
    def group_bases(self) -> tuple[np.ndarray, ...]:
        """residual_basis of each group's block of A, copied C-contiguous so
        the singular vectors past the rank are not kept alive.  Raises
        DegenerateGroupError naming the first group without a residual."""
        with one_blas_thread():
            return tuple(
                _read_only(np.ascontiguousarray(residual_basis(self.A_block(i), group=i)))
                for i in range(self.g))

    @cached_property
    def group_basis(self) -> np.ndarray:
        """The N x sum(k_i) block-diagonal basis blockdiag(U_i) of the
        group_bases, read-only; its span holds range(A)."""
        bases = self.group_bases
        U = np.zeros((self.N, sum(b.shape[1] for b in bases)))
        col = 0
        for i, b in enumerate(bases):
            U[self.group_slice(i), col:col + b.shape[1]] = b
            col += b.shape[1]
        return _read_only(U)

    @cached_property
    def projections(self) -> ProjectionSet:
        """build_projections(self), read-only: the one build every caller reads."""
        with one_blas_thread():
            return build_projections(self)

    @cached_property
    def tau(self) -> np.ndarray:
        """The g x 3 tau coefficients, estimators.tau_coefficients of each
        group's group_projector, read-only; raises naming the first group
        for which they are undefined."""
        from .estimators import group_projector, tau_coefficients

        tau = np.empty((self.g, 3))
        with one_blas_thread():
            for i, U in enumerate(self.group_bases):
                tau[i] = tau_coefficients(group_projector(U), self.group_sizes[i],
                                          U.shape[1], group=i)
        return _read_only(tau)

    def group_slice(self, i: int) -> slice:
        off = self.group_offsets[i]
        return slice(off, off + self.group_sizes[i])

    def A_block(self, i: int) -> np.ndarray:
        return self.A[self.group_slice(i)]


@dataclass(frozen=True, eq=False)
class RowClasses:
    """The N rows partitioned into row classes: rows of one group whose rows
    of A are bitwise equal.  Every design-derived weight is constant on a
    class, so the design is built from one representative row per class.

    index is the class of each row, first the representative (first) row of
    each class, sizes the class sizes n and group the group of each class.
    Classes are numbered in row order, so group is nondecreasing.
    """

    index: np.ndarray
    first: np.ndarray
    sizes: np.ndarray
    group: np.ndarray


def row_classes(design: DesignSpec) -> RowClasses:
    """The row classes of a design, numbered by first appearance."""
    A = np.ascontiguousarray(design.A)
    keys = A.view(np.dtype((np.void, A.itemsize * A.shape[1]))).ravel()
    index = np.empty(design.N, dtype=np.intp)
    first, counts = [], []
    for i in range(design.g):
        sl = design.group_slice(i)
        _, pos, inv = np.unique(keys[sl], return_index=True, return_inverse=True)
        order = np.argsort(pos)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        index[sl] = sum(counts) + rank[inv]
        first.append(sl.start + pos[order])
        counts.append(order.size)
    return RowClasses(index=index, first=np.concatenate(first),
                      sizes=np.bincount(index),
                      group=np.repeat(np.arange(design.g), counts))


@dataclass(frozen=True, eq=False)
class ClassWeights:
    """The design geometry between row classes: u x u blocks of pi_a and
    pi_h between class representatives, and omega, whose entry (c, c') is
    the weight between distinct rows of classes c and c' (0 on the
    diagonal for a one-row class, which has no such pair)."""

    classes: RowClasses
    pi_a: np.ndarray
    pi_h: np.ndarray
    omega: np.ndarray

    @cached_property
    def block_sums(self) -> np.ndarray:
        """g x g sums of omega_ij^2 over pairs of distinct rows in each pair
        of groups, read-only; every variance functional of the statistic
        contracts against these."""
        group = self.classes.group
        offs = [sl.start for sl in group_spans(group, int(group[-1]) + 1)]
        X = pair_counts(self.classes.sizes) * (self.omega * self.omega)
        return _read_only(np.add.reduceat(np.add.reduceat(X, offs, axis=0), offs, axis=1))

    def expand(self, M: np.ndarray) -> np.ndarray:
        """The N x N matrix whose entry (i, j) is M at the classes of rows
        i and j."""
        idx = self.classes.index
        return M[np.ix_(idx, idx)]


@dataclass(frozen=True, eq=False)
class OmegaFactors:
    """The zero-diagonal omega in factored form,

        omega = W'W - C diag(d) C - diag(e),   C = I - QQ',

    with W the ell x N root of pi_h (DesignSpec.hypothesis_root), Q the
    N x k orthonormal basis of A (DesignSpec.a_basis), d the balancing
    weights and e = h - (C o C) d the balancing residual
    (ProjectionSet.d and .e), so that the diagonal of omega is exactly
    zero.  No N x N matrix is formed.

    T = tr(Y' omega Y) is read through an orthonormal N x K basis U whose
    span holds range(A), the block-diagonal basis of the groups.  The rows
    of W lie in range(A), so W Y = (W U) V with V = U'Y.  With R = Y - U V
    each row is y_i = R_i + u_i V, and (C Y)_i = R_i + u_i F V with
    F = I - G G', G = U'Q (F V = 0 when rank A = K, as span(Q) is then
    span(U)).  For the weights w = e (F = I) and w = d,

        sum_i w_i ||R_i + u_i F V||^2
            = w' sq + 2 <F, P_w> - <U_w F + F U_w - F U_w F, V V'>,

    U_w = U'diag(w) U and P_w = U'diag(w) Y V', so T needs the squared
    row norms sq of R and the K x K products S = (lift Y) V' only.  lift
    stacks U', (e o U)' and, when rank A < K, (d o U)': its product with Y
    gives V and each U'diag(w) Y, so S stacks V V' and each P_w.  terms
    holds (F, U_w F + F U_w - F U_w F) per weight, in the order of lift,
    wu = W U and de = d + e.
    """

    u: np.ndarray
    lift: np.ndarray
    wu: np.ndarray
    de: np.ndarray
    terms: tuple

    @classmethod
    def build(cls, w, q, d, e, u) -> "OmegaFactors":
        K = u.shape[1]
        weights, folds = [e], [np.eye(K)]
        if q.shape[1] < K:
            G = u.T @ q
            weights.append(d)
            folds.append(np.eye(K) - G @ G.T)
        MFs = [u.T @ (v[:, None] * u) @ F for v, F in zip(weights, folds)]
        lift = np.vstack([u.T] + [(v[:, None] * u).T for v in weights])
        return cls(u=u, lift=lift, wu=w @ u, de=d + e,
                   terms=tuple((F, MF + MF.T - F @ MF) for F, MF in zip(folds, MFs)))

    def trace(self, S, sq) -> np.ndarray:
        """T of each matrix Y of a stack of B, from the (B, J K, K)
        products S = (lift Y)(U'Y)', J = 1 + len(terms), and the N x B
        squared norms sq of its rows centred on U."""
        K = self.u.shape[1]
        VV = S[:, :K]
        t = np.einsum("bij,ij->b", self.wu @ VV, self.wu) - self.de @ sq
        for j, (F, C) in enumerate(self.terms, start=1):
            t += np.einsum("bij,ij->b", VV, C)
            t -= 2.0 * np.einsum("bij,ij->b", S[:, j * K:(j + 1) * K], F)
        return t

    def centre(self, Z, r: int):
        """(t, R, sq) for a side-by-side matrix Z of r-column blocks: T of
        each block, the rows R = Z - U U'Z centred on U, and their N x B
        squared norms."""
        K = self.u.shape[1]
        lifted = self.lift @ Z
        V = lifted[:K]
        R = self.u @ V
        np.subtract(Z, R, out=R)
        sq = block_sq_norms(R, r)
        n = sq.shape[1]
        S = lifted.reshape(-1, n, r).swapaxes(0, 1) @ V.reshape(K, n, r).transpose(1, 2, 0)
        return self.trace(S, sq), R, sq


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Design geometry consumed by the test: the diagonal of the hypothesis
    projection, the row compressor in row_compressor's thin form for p
    responses, the balancing weights d and the balancing residual e (one of
    each per row), the relative balancing residual, omega's factors, which
    the data are read through, and the class weights, which the variance,
    the diagnostics and the mean's omega-weighted rows read.

    The dense r x p compressor, N x N hat projection pi_a, hypothesis
    projection pi_h and weight matrix omega are formed on first read (the
    last three from the class weights, in O(N^2)) and cached read-only;
    nothing in the test itself reads them.
    """

    h_diag: np.ndarray
    thin: np.ndarray | None
    p: int
    d: np.ndarray
    e: np.ndarray
    balancing_residual: float
    factors: OmegaFactors
    weights: ClassWeights

    @cached_property
    def compressor(self) -> np.ndarray:
        """The dense P: the identity for a skipped one, H[1:] for a reflection."""
        w = self.thin
        if w is None:
            return _read_only(np.eye(self.p))
        if w.ndim == 2:
            return w
        return _read_only(np.eye(self.p)[1:] - 2.0 * np.outer(w[1:], w))

    @cached_property
    def pi_a(self) -> np.ndarray:
        return _read_only(self.weights.expand(self.weights.pi_a))

    @cached_property
    def pi_h(self) -> np.ndarray:
        return _read_only(self.weights.expand(self.weights.pi_h))

    @cached_property
    def omega(self) -> np.ndarray:
        omega = self.weights.expand(self.weights.omega)
        np.fill_diagonal(omega, 0.0)
        return _read_only(omega)


def block_sq_norms(Z, r: int) -> np.ndarray:
    """N x B squared norms of the rows of each r-column block of a
    side-by-side matrix Z.  Rows of 8 or more columns are summed in one
    pass; shorter ones are squared and summed by a matrix-vector product,
    as einsum's inner loop is slow on a few columns."""
    rows = Z.reshape(-1, r)
    if r >= 8:
        sq = np.einsum("ij,ij->i", rows, rows)
    else:
        sq = np.square(rows) @ np.ones(r)
    return sq.reshape(Z.shape[0], -1)


def _read_only(M: np.ndarray) -> np.ndarray:
    M.flags.writeable = False
    return M


def _dense(M) -> np.ndarray:
    """A Structured matrix formed densely, read-only; an array itself."""
    return _read_only(M.dense()) if isinstance(M, Structured) else M


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


def hypothesis_projector(design: DesignSpec, rows) -> tuple[np.ndarray, np.ndarray]:
    """The block between the given rows of the projection onto the span of
    A(A'A)^{-1}L', with its diagonal.  All N rows give the full matrix,
    whose rank is the number of rows of L.
    """
    W = design.hypothesis_root[:, rows]
    pi_h = W.T @ W
    pi_h = (pi_h + pi_h.T) / 2.0
    return pi_h, np.diag(pi_h).copy()


def row_compressor(design: DesignSpec) -> np.ndarray | None:
    """The r x p compressor P = {R(B'B)^{-1}R'}^{-1/2} R (B'B)^{-1} B' in
    the thin form that estimators.compress applies.

    Its Gram matrix is a projection of rank r, and every trace of the test
    is invariant under P -> O P for an orthogonal O, so any P with
    orthonormal rows spanning that projection's range serves.  When r = p
    the compressor is orthogonal and skipped: None.  For a structured
    first-difference R (B = I) the range is the complement of the ones
    vector, and the form is the unit vector w of the Householder reflection
    H = I - 2ww' that maps 1/sqrt(p) to e_1: P = H[1:], so X P' =
    (X H)[:, 1:] costs O(Np).  Otherwise P itself, its inverse square root
    taken through a symmetric eigendecomposition, stored column-major so
    that the P' of X P' is contiguous.
    """
    if design.r == design.p:
        return None
    if design.response == "differences":
        w = np.full(design.p, 1.0 / sqrt(design.p))
        w[0] -= 1.0
        return w / np.linalg.norm(w)
    GinvRT, M = design._b_factors
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    if not positive_definite(w[0], w[-1]):
        raise DesignError(
            f"R(B'B)^{{-1}}R' is not positive definite (min eigenvalue {w[0]:.3e})")
    inv_sqrt = (V / np.sqrt(w)) @ V.T
    return np.asfortranarray(inv_sqrt @ (GinvRT.T @ design.B.T))


def _balancing_weights(S: np.ndarray, h: np.ndarray,
                       n: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-norm least-squares solve of [(I - pi_a) o (I - pi_a)] d = h
    for class-constant d, with the relative residual gate.

    S is the u x u block of pi_a between class representatives, h the class
    values of the right side and n the class sizes (all ones for single
    rows).  With V = E diag(n)^{-1/2} for the N x u class indicator E, the
    N x N system is V R V' on class-constant vectors, with the symmetric
    R = diag(1 - 2 s_cc) + diag(sqrt n) (S o S) diag(sqrt n), and
    diag(1 - 2 s_cc) on their complement (the vectors summing to zero
    within each class).  The right side has no part in the complement, so
    the minimum-norm solution is d = y / sqrt(n) with y that of
    R y = sqrt(n) o h.  Eigenvalues are cut where lstsq would cut the
    singular values of the N x N system.

    Returns the class weights d, the class residuals
    e = h - ((I - pi_a) o (I - pi_a)) d and the relative residual norm.
    """
    root = np.sqrt(n)
    S2 = S * S
    centre = 1.0 - 2.0 * np.diag(S)
    R = S2 * root[:, None] * root[None, :]
    R[np.diag_indices_from(R)] += centre
    w, V = np.linalg.eigh(R)
    top = max(np.max(np.abs(w), initial=0.0),
              np.max(np.abs(centre[n > 1]), initial=0.0))
    keep = np.abs(w) > n.sum() * np.finfo(float).eps * top
    y = V[:, keep] @ ((V[:, keep].T @ (root * h)) / w[keep])
    d = y / root
    e = h - (centre * d + S2 @ (n * d))
    scale = sqrt(float(n @ (h * h)))
    resid = sqrt(float(n @ (e * e)))
    rel = resid / scale if scale > 0.0 else resid
    if rel > BALANCE_RTOL:
        raise NoBalancingSolution(
            f"balancing system has no solution: relative residual {rel:.3e} "
            f"exceeds {BALANCE_RTOL:g}")
    return d, e, rel


def build_omega(pi_h, pi_a, d, sizes) -> np.ndarray:
    """The weights of pi_h - (I - pi_a) diag(d) (I - pi_a) between row
    classes: from pi_h and pi_a between class representatives, d per class
    and the class sizes n, the symmetric u x u matrix of the weights
    between distinct rows of two classes,
    pi_h + pi_a o (d 1' + 1 d') - pi_a diag(n o d) pi_a, whose diagonal
    holds the weight within a class (0 for a one-row class, so with all
    sizes 1 it is the N x N omega).

    A diagonal residue above OMEGA_DIAG_TOL means the supplied weights do not
    solve the balancing system and raises NoBalancingSolution.
    """
    pi_h = _as_matrix(pi_h, "pi_h")
    pi_a = _as_matrix(pi_a, "pi_a")
    d = np.asarray(d, dtype=float).ravel()
    n = np.asarray(sizes, dtype=float)
    omega = pi_h + pi_a * (d[:, None] + d[None, :]) - (pi_a * (n * d)) @ pi_a
    omega = (omega + omega.T) / 2.0
    within = np.diag(omega).copy()
    worst = float(np.max(np.abs(within - d), initial=0.0))
    if worst > OMEGA_DIAG_TOL:
        raise NoBalancingSolution(
            f"omega diagonal residue {worst:.3e} exceeds {OMEGA_DIAG_TOL:g}; "
            "balancing weights are inconsistent with the design")
    omega[np.diag_indices_from(omega)] = np.where(n > 1, within, 0.0)
    return omega


def build_projections(design: DesignSpec) -> ProjectionSet:
    """Assemble every design-derived quantity the test needs, from one
    representative row per row class: O(N k^2 + u^3) for u classes, and no
    N x N array unless every row is its own class.

    Raises DegenerateGroupError, naming the group, when a group has no
    residual, and otherwise NoBalancingSolution when the design does not
    admit balancing weights within tolerance.
    """
    design.group_bases  # raises DegenerateGroupError, naming the group
    classes = row_classes(design)
    n = classes.sizes.astype(float)
    q = design.a_basis
    q_u = q[classes.first]
    pi_a = q_u @ q_u.T
    pi_a = (pi_a + pi_a.T) / 2.0
    pi_h, h = hypothesis_projector(design, classes.first)
    thin = row_compressor(design)
    if thin is not None:
        _read_only(thin)
    d, e, rel = _balancing_weights(pi_a, h, n)
    omega = build_omega(pi_h, pi_a, d, n)
    h, row_d, row_e = h[classes.index], d[classes.index], e[classes.index]
    factors = OmegaFactors.build(design.hypothesis_root, q, row_d, row_e, design.group_basis)
    for M in (*vars(classes).values(), pi_a, pi_h, omega, h, row_d, row_e,
              factors.lift, factors.wu, factors.de,
              *(M for term in factors.terms for M in term)):
        _read_only(M)
    weights = ClassWeights(classes=classes, pi_a=pi_a, pi_h=pi_h, omega=omega)
    return ProjectionSet(h_diag=h, thin=thin, p=design.p, d=row_d, e=row_e,
                         balancing_residual=rel, factors=factors,
                         weights=weights)


def pair_counts(n) -> np.ndarray:
    """u x u numbers of ordered pairs of distinct rows between classes of
    sizes n: n_c n_c' off the diagonal, n_c (n_c - 1) on it."""
    n = np.asarray(n, dtype=float)
    counts = np.outer(n, n)
    counts[np.diag_indices_from(counts)] -= n
    return counts


def group_spans(group, g: int) -> list[slice]:
    """The classes of each of the g groups as slices, for the nondecreasing
    class groups of RowClasses."""
    bounds = np.searchsorted(group, np.arange(g + 1))
    return [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
