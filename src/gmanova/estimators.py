"""Per-group scatter statistics and unbiased variance functionals.

Given the compressed residuals of each group, these functions produce the
scatter matrix S_i and fourth-order statistic Q_i, the tau coefficients of
the entrywise-squared residual maker, unbiased estimates of tr(Psi_i^2) and
tr(Psi_i Psi_j) for the compressed covariances Psi_i, and finally the
variance estimate sigma0_hat^2 of the trace statistic under the null.

compress is the one place that applies the design's row compressor; the
test and the model side read compressed rows and covariances only.

The estimate is computed here and nowhere else.  Its design constants,
the tau coefficients and the omega o omega block sums, are cached once
per design (DesignSpec.tau and ClassWeights.block_sums), so every step
below takes only the data and the DesignSpec and gives a2, b and sigma0
for each matrix of a stack.  It needs tr S_i, tr(S_i S_j) and Q_i only.
centred_stack takes compressed rows Y and centres them in one pass on
the block-diagonal basis U of the groups, R = Y - U(U'Y), through
OmegaFactors.centre: the squared norms of the rows of R give tr S_i and
Q_i and, with K x K products, T as well; tr(S_i S_j) comes from the
unscaled r x r products R_i'R_i when r <= N, and otherwise from the N x N
Gram H = R R', as tr(S_i S_j) = ||R_i R_j'||^2 / (m_i m_j).  gram_stack
reads all of it from Grams E E' of uncentred rows, through one product
with U; gram_variance is the one r > N kernel of both.  The r x r
scatters S_i are formed by group_residual_scatter only when
VarianceEstimate.s is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .design import (
    DesignSpec,
    projector,
    block_sq_norms,
    residual_basis,
)
from .errors import ConfigError, DegenerateGroupError, DesignError, EstimatorUndefinedError


@dataclass(frozen=True, eq=False)
class GroupedSample:
    """An N x p observation matrix with rows grouped contiguously.

    source_rows, when the rows were read from a file, gives the 0-based
    data row of the file that each row of X came from.
    """

    X: np.ndarray
    group_sizes: tuple[int, ...]
    labels: tuple[str, ...] | None = None
    source_rows: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.size == 0:
            raise ConfigError(f"X must be a nonempty 2-D matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ConfigError("X contains non-finite entries")
        object.__setattr__(self, "X", X)
        sizes = tuple(int(n) for n in self.group_sizes)
        if len(sizes) == 0 or any(n < 1 for n in sizes):
            raise ConfigError(f"group sizes must be positive, got {sizes}")
        if sum(sizes) != X.shape[0]:
            raise ConfigError(
                f"group sizes sum to {sum(sizes)} but X has {X.shape[0]} rows")
        object.__setattr__(self, "group_sizes", sizes)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != len(sizes):
                raise ConfigError(
                    f"{len(labels)} labels for {len(sizes)} groups")
            object.__setattr__(self, "labels", labels)
        if self.source_rows is not None:
            rows = np.asarray(self.source_rows, dtype=np.intp)
            if rows.shape != (X.shape[0],):
                raise ConfigError(
                    f"{rows.size} source rows for {X.shape[0]} data rows")
            object.__setattr__(self, "source_rows", rows)

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def g(self) -> int:
        return len(self.group_sizes)


@dataclass(frozen=True, eq=False)
class VarianceEstimate:
    """Everything the null-variance estimate is made of: per-group Q_i,
    design-block ranks k_i, the unbiased a2/b estimates, and sigma0_sq_hat
    itself (which may be non-positive for general designs; the sign is
    preserved, never clamped).  The tau coefficients are the design's
    (DesignSpec.tau).  The estimate does not need the scatters S_i, so s is
    formed by `scatters` on first read.
    """

    q: np.ndarray
    k: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    sigma0_sq: float
    scatters: Callable[[], tuple[np.ndarray, ...]] = field(repr=False)

    @cached_property
    def s(self) -> tuple[np.ndarray, ...]:
        return self.scatters()


def group_projector(U) -> np.ndarray:
    """U U' for a group's orthonormal basis U in DesignSpec.group_bases, so
    it and k_i come from one SVD: through projector, whose cutoff keeps every
    column of an orthonormal U, or zero for a 0-column U (an all-zero block)."""
    return projector(U) if U.shape[1] else np.zeros((U.shape[0], U.shape[0]))


def compress(X, compressor, out=None) -> np.ndarray:
    """Rows of X (a matrix or a stack of them) mapped by the design's row
    compressor P (PP' = I_r), in any form of design.row_compressor: None,
    which leaves them as they are (rows already compressed, or r = p, under
    which every trace of the test is invariant), the vector w of a
    reflection H = I - 2ww' with P = H[1:], applied as (X H)[..., 1:] in
    O(Np), or P itself.  out, when given and P is not None, receives the
    compressed rows.
    """
    X = np.asarray(X, dtype=float)
    if compressor is None:
        return X
    if compressor.ndim == 1:
        Y = np.multiply.outer(X @ compressor, -2.0 * compressor[1:], out=out)
        Y += X[..., 1:]
        return Y
    return np.matmul(X, compressor.T, out=out)


def _blocks(Z, r: int) -> np.ndarray:
    """The r-column blocks of a side-by-side matrix Z as a (B, N, r) view.
    A product of this stack with its own transpose is one symmetric rank-k
    update per matrix, bitwise the 2-D Z_b'Z_b or Z_b Z_b'."""
    return Z.reshape(Z.shape[0], -1, r).swapaxes(0, 1)


def group_residual_scatter(X_i, A_i, compressor, *, group: int = 0, basis=None):
    """Compressed residual scatter of one group.

    Returns (S_i, Q_i, k_i) where S_i is the r x r scatter of the compressed
    residuals divided by N_i - k_i, Q_i the matching fourth-order statistic,
    and k_i the numerical rank of the group design block.  The rows are
    compressed first (compressor None: they already are), then centred on
    the orthonormal basis of A_i: basis, when given, else
    residual_basis(A_i).
    """
    X_i = np.asarray(X_i, dtype=float)
    A_i = np.asarray(A_i, dtype=float)
    n_i = X_i.shape[0]
    if A_i.shape[0] != n_i:
        raise DesignError(
            f"group {group}: A block has {A_i.shape[0]} rows but data has {n_i}")
    U = residual_basis(A_i, group=group) if basis is None else basis
    k_i = U.shape[1]
    m = n_i - k_i
    Y = compress(X_i, compressor)
    resid = U @ (U.T @ Y)
    np.subtract(Y, resid, out=resid)
    S = resid.T @ resid
    S /= m
    sq = block_sq_norms(resid, Y.shape[1])
    return S, float(np.einsum("ib,ib->b", sq, sq)[0]) / m, k_i


def tau_coefficients(pi_a_i, n_i: int, k_i: int, *, group: int = 0):
    """Trace coefficients of the entrywise-squared residual maker.

    tau1 and tau2 are the traces of the first and second powers of
    (I - pi_a_i) o (I - pi_a_i); tau3 is the derived denominator of the
    unbiased a2 estimator and must not vanish.
    """
    # One n_i x n_i array, squared in place: this runs in every engine build.
    Csq = np.negative(np.asarray(pi_a_i, dtype=float))
    Csq[np.diag_indices(n_i)] += 1.0
    np.square(Csq, out=Csq)
    t1 = float(np.trace(Csq))
    t2 = float(np.einsum("ij,ij->", Csq, Csq))
    m = n_i - k_i
    if m < 2:
        raise DegenerateGroupError(
            group, f"needs N_i - k_i >= 2 (N_i={n_i}, k_i={k_i})")
    t3 = (m - 1.0) / (m * m) * (m * (m + 2.0) * t2 - 3.0 * t1 * t1)
    if abs(t3) <= 1e-9 * m * m:
        raise EstimatorUndefinedError(
            group, f"tau3 vanishes for N_i={n_i}, k_i={k_i}; "
                   "the a2 estimator is undefined")
    return t1, t2, t3


def a2_hat(S_i, Q_i: float, tau_i, n_i: int, k_i: int) -> float:
    """Unbiased estimate of tr(Psi_i^2) from the group scatter statistics.

    May be negative for general designs; callers decide how to handle the
    sign (the test's decision rule uses an indicator).  tau_i comes from
    tau_coefficients, which rejects groups with N_i - k_i < 2.
    """
    return float(_a2(float(np.trace(S_i)), float(np.einsum("ij,ij->", S_i, S_i)),
                     Q_i, tau_i, n_i - k_i))


def _a2(tr_s, tr_s2, q, tau, m):
    """The a2 estimate from tr S, tr S^2 and Q with N_i - k_i = m: numbers
    and one row of tau coefficients, or arrays over the groups and g x 3."""
    t1, t2, t3 = np.transpose(tau)
    num = ((m * m * t2 - t1 * t1) * tr_s2
           - (m * t2 - t1 * t1) * tr_s * tr_s
           - (m - 1.0) * t1 * q)
    return num / (m * t3)


def b_hat(S_i, S_j) -> float:
    """Unbiased estimate tr(S_i S_j) of tr(Psi_i Psi_j) for distinct groups;
    the scatters are symmetric, so no transposed operand is read."""
    S_i = np.asarray(S_i, dtype=float)
    S_j = np.asarray(S_j, dtype=float)
    if S_i.shape != S_j.shape or S_i.ndim != 2 or S_i.shape[0] != S_i.shape[1]:
        raise ValueError(f"incompatible scatter shapes {S_i.shape} and {S_j.shape}")
    return float(np.einsum("ij,ij->", S_i, S_j))


def v_hat(a2_hats, b_hats, group_sizes) -> np.ndarray:
    """Block-constant N x N matrix with a2 estimates on diagonal blocks and
    b estimates on off-diagonal blocks (a dense reference; the estimate
    itself contracts the g x g blocks)."""
    a2 = np.asarray(a2_hats, dtype=float).ravel()
    b = np.asarray(b_hats, dtype=float)
    g = a2.shape[0]
    if b.shape != (g, g):
        raise ValueError(f"b_hats must be {g}x{g}, got {b.shape}")
    idx = np.repeat(np.arange(g), np.asarray(group_sizes, dtype=int))
    return _block_coef(a2, b)[np.ix_(idx, idx)]


def sigma0_hat(omega, v) -> float:
    """Null-variance estimate 2 tr((omega o omega) v), the dense reference
    of sigma0_from_blocks.

    The value may be non-positive for general designs; it is reported as-is.
    """
    omega = np.asarray(omega, dtype=float)
    v = np.asarray(v, dtype=float)
    return 2.0 * float(np.sum(omega * omega * v))


def _block_coef(a2, b) -> np.ndarray:
    """g x g coefficients, a2 on the diagonal and b off it; for stacks of
    a2 (..., g) and b (..., g, g), one such matrix per matrix."""
    coef = np.array(b, dtype=float)
    diag = np.arange(coef.shape[-1])
    coef[..., diag, diag] = a2
    return coef


def sigma0_from_blocks(blocks, a2, b):
    """sigma0_hat contracted over the g x g omega o omega block sums:
    2 sum(blocks o coef), a2 on the diagonal of coef and b off it; for
    stacks of a2 and b, an array of one value per matrix."""
    s = 2.0 * np.sum(blocks * _block_coef(a2, b), axis=(-2, -1))
    return float(s) if s.ndim == 0 else s


def centred_stack(Y, design: DesignSpec):
    """The estimate for a (B, N, r) stack of compressed rows:
    (t, q, a2, b, sigma0_sq) with t and sigma0_sq (B,), q and a2
    (B, g), and b (B, g, g) with a zero diagonal.

    One centring pass serves all of it: with the matrices side by side as
    the N x (B r) matrix Z = [Y_1 ... Y_B] (a view when the stack's memory
    runs over N first, a transposed (N, B, r) array, else a copy),
    OmegaFactors.centre centres Z on the block-diagonal basis U of the
    groups, R = Z - U U'Z, and the squared norms of the rows of R give
    tr S_i, Q_i and, with K x K products, t (bitwise the t of
    trace_test.statistic_t).  tr(S_i S_j) comes from the unscaled
    r x r syrks R_i'R_i of each group when r <= N, by dot products
    divided by m_i m_j afterwards, and from the N x N Grams H = R R'
    (gram_variance) when r > N.  Everything after those products is one
    vectorised step over the stack.
    """
    n, N, r = Y.shape
    t, R, sq = design.projections.factors.centre(Y.swapaxes(0, 1).reshape(N, -1), r)
    blocks = _blocks(R, r)
    if r > N:
        return (t, *gram_variance(blocks @ blocks.swapaxes(1, 2), design))
    g = design.g
    S = np.empty((n, g, r, r))
    for i in range(g):
        R_i = blocks[:, design.group_slice(i)]
        np.matmul(R_i.swapaxes(1, 2), R_i, out=S[:, i])
    S = S.reshape(n, g, r * r)
    return (t, *_variance(sq.T, S @ S.swapaxes(1, 2), design))


def gram_stack(G, design: DesignSpec):
    """centred_stack of compressed rows E, read from the (B, N, N) stack of
    their Grams G = E E' through one product G U with the group basis U.
    As G U = E (U'E)', lift G U are the products OmegaFactors.trace reads,
    U'G U the first block.  With L = G U - U (U'G U) / 2 the residual Grams
    M G M, M = I - U U', are H = G - [U L] [L U]': one rank-2K update per
    Gram, whose diagonal gives the centred row norms t reads too."""
    factors = design.projections.factors
    U = factors.u
    L = np.matmul(G, U)
    S = factors.lift @ L
    L -= U @ (S[:, :U.shape[1]] / 2.0)
    U = np.broadcast_to(U, L.shape)
    H = np.concatenate((U, L), axis=2) @ np.concatenate((L, U), axis=2).swapaxes(1, 2)
    np.subtract(G, H, out=H)
    t = factors.trace(S, np.diagonal(H, axis1=1, axis2=2).T)
    return (t, *gram_variance(H, design))


def gram_variance(H, design: DesignSpec):
    """(q, a2, b, sigma0_sq) from a (B, N, N) stack of residual Grams
    H = R R' of the stacked group-centred rows R (overwritten): tr S_i and
    Q_i from the diagonal of H, tr(S_i S_j) = ||H_ij||^2 / (m_i m_j) from
    its g x g blocks."""
    sq = np.diagonal(H, axis1=1, axis2=2).copy()
    offs = design.group_offsets
    H *= H
    return _variance(sq, np.add.reduceat(np.add.reduceat(H, offs, axis=1), offs, axis=2),
                     design)


def _residual_dof(design: DesignSpec) -> np.ndarray:
    """m_i = N_i - k_i of each group."""
    return np.asarray(design.group_sizes, dtype=float) - [U.shape[1] for U in design.group_bases]


def _variance(sq, prod, design: DesignSpec):
    """(q, a2, b, sigma0_sq) from the (B, N) squared norms of the centred
    rows and the (B, g, g) products m_i m_j tr(S_i S_j) (overwritten into
    b with a zero diagonal): tr S_i and Q_i are sums of the norms and of
    their squares over each group, divided by m_i, and the design's tau
    coefficients and block sums finish a2 and sigma0_sq."""
    m = _residual_dof(design)
    offs = design.group_offsets
    tr_s = np.add.reduceat(sq, offs, axis=1) / m
    q = np.add.reduceat(sq * sq, offs, axis=1) / m
    prod /= np.outer(m, m)
    diag = np.arange(len(m))
    a2 = _a2(tr_s, prod[:, diag, diag], q, design.tau, m)
    b = prod
    b[:, diag, diag] = 0.0
    return q, a2, b, sigma0_from_blocks(design.projections.weights.block_sums, a2, b)


def estimate_variance(sample: GroupedSample, design: DesignSpec) -> VarianceEstimate:
    """Full variance-estimation pipeline over all groups of a sample:
    centred_stack of its compressed rows.  The scatters are formed by
    group_residual_scatter on first read of s."""
    if tuple(sample.group_sizes) != tuple(design.group_sizes):
        raise ConfigError(
            f"sample group sizes {sample.group_sizes} do not match design "
            f"group sizes {design.group_sizes}")
    if sample.p != design.p:
        raise ConfigError(
            f"data has p={sample.p} response columns but design B has "
            f"p={design.p} rows")
    Y = compress(sample.X, design.projections.thin)
    _, q, a2, b, sigma0_sq = centred_stack(Y[None], design)
    bases = design.group_bases
    s_read = lambda: tuple(
        group_residual_scatter(Y[design.group_slice(i)], design.A_block(i), None,
                               group=i, basis=U)[0]
        for i, U in enumerate(bases))
    return VarianceEstimate(q=q[0], k=np.array([U.shape[1] for U in bases]),
                            a2=a2[0], b=b[0], sigma0_sq=float(sigma0_sq[0]),
                            scatters=s_read)
