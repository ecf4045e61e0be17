"""Slow, independent reference computations for cross-checking fast paths.

Everything here is deliberately dense and unoptimized, built from explicit
inverses and matrix square roots rather than the solver/eigenvalue routes
the main implementations use, so agreement between the two is evidence
rather than tautology.  Intended for the test suite and the `diagnose` CLI
verb only; these routines run at test scale.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import sqrtm

from .design import DesignSpec


def dense_min_norm_solve(coeff, rhs) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares through a full SVD; returns the solution
    and the absolute residual (no exception for inconsistent systems)."""
    coeff = np.asarray(coeff, dtype=float)
    rhs = np.asarray(rhs, dtype=float).ravel()
    U, s, Vt = np.linalg.svd(coeff)
    if s.size and s[0] > 0.0:
        cutoff = max(coeff.shape) * np.finfo(float).eps * s[0]
        inv = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    else:
        inv = np.zeros_like(s)
    x = Vt.T[:, :s.size] @ (inv * (U.T @ rhs)[:s.size])
    residual = float(np.linalg.norm(coeff @ x - rhs))
    return x, residual


def t_by_decomposition(X, design: DesignSpec) -> float:
    """The trace statistic as the naive quadratic form minus the diagonal
    correction, all quantities rebuilt from scratch with dense algebra."""
    X = np.asarray(X, dtype=float)
    A, B, L, R = design.A, design.B, design.L, design.R
    N = design.N

    AtA_inv = np.linalg.inv(A.T @ A)
    pi_a = A @ AtA_inv @ A.T
    mid = np.linalg.inv(L @ AtA_inv @ L.T)
    pi_h = A @ AtA_inv @ L.T @ mid @ L @ AtA_inv @ A.T

    BtB_inv = np.linalg.inv(B.T @ B)
    M = R @ BtB_inv @ R.T
    M_inv_sqrt = np.linalg.inv(np.real(sqrtm(M)))
    P = M_inv_sqrt @ R @ BtB_inv @ B.T

    C = np.eye(N) - pi_a
    d, _ = dense_min_norm_solve(C * C, np.diag(pi_h))

    q_hat = float(np.trace(P @ X.T @ pi_h @ X @ P.T))
    correction = float(np.trace(P @ X.T @ C @ np.diag(d) @ C @ X @ P.T))
    return q_hat - correction


def mc_moment_oracle(estimator, sampler, reps: int, seed: int) -> tuple[float, float]:
    """Replay an estimator on `reps` datasets drawn by `sampler(rng)`;
    returns the Monte Carlo mean and its standard error."""
    reps = int(reps)
    vals = np.empty(reps)
    mask = (1 << 64) - 1
    for j in range(reps):
        rng = np.random.Generator(np.random.Philox(key=(int(seed) & mask) + (j << 64)))
        vals[j] = estimator(sampler(rng))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps)) if reps > 1 else float("nan")
    return mean, se


def one_way_tau_reference(n: int) -> tuple[float, float, float]:
    """Closed-form tau coefficients when the group design is a ones column."""
    n = float(n)
    return ((n - 1.0) ** 2 / n,
            (n - 1.0) * (n * n - 3.0 * n + 3.0) / (n * n),
            (n - 2.0) ** 2 * (n - 3.0) / n)


def one_way_a2_reference(S, Q: float, n: int) -> float:
    """Closed-form unbiased tr(Psi^2) estimate for a ones-column group design."""
    S = np.asarray(S, dtype=float)
    n = float(n)
    return ((n - 1.0) / (n * (n - 2.0) * (n - 3.0))
            * ((n - 1.0) * (n - 2.0) * float(np.sum(S * S))
               + float(np.trace(S)) ** 2 - n * Q))


def one_way_a2_permutation(X_i) -> float:
    """Brute-force 4-permutation form of the one-way tr(Psi^2) estimate,
    manifestly positive; exponential cost, small groups only."""
    X_i = np.asarray(X_i, dtype=float)
    n = X_i.shape[0]
    if n < 4:
        raise ValueError(f"needs at least 4 observations, got {n}")
    total = 0.0
    for k, l, a, b in itertools.permutations(range(n), 4):
        total += float((X_i[k] - X_i[l]) @ (X_i[a] - X_i[b])) ** 2
    return total / (4.0 * math.perm(n, 4))


def a2_ratio_by_tuples(psis, omega, group_sizes) -> float:
    """The diagnostics' a2 ratio by a loop over all g^4 group tuples, from
    the dense N x N omega: the largest tr(Psi_a Psi_b Psi_c Psi_d) over
    tuples whose every pair of entries shares a nonzero omega block (0 when
    none does), over the squared sum of tr(Psi_i Psi_j) on those blocks."""
    omega = np.asarray(omega, dtype=float)
    off = omega * omega
    np.fill_diagonal(off, 0.0)
    ends = np.cumsum(group_sizes)
    spans = [slice(int(e - n), int(e)) for e, n in zip(ends, group_sizes)]
    g = len(spans)
    active = np.array([[float(np.sum(off[si, sj])) > 0.0 for sj in spans]
                       for si in spans])
    psis = [np.asarray(Psi, dtype=float) for Psi in psis]
    pair = {}
    b_sum = 0.0
    for i in range(g):
        for j in range(g):
            if active[i, j]:
                pair[(i, j)] = psis[i] @ psis[j]
                b_sum += float(np.trace(pair[(i, j)]))
    worst = 0.0
    for tup in itertools.product(range(g), repeat=4):
        if all(active[tup[a], tup[b]] for a in range(4) for b in range(4) if a != b):
            psi4 = float(np.sum(pair[(tup[0], tup[1])] * pair[(tup[2], tup[3])].T))
            worst = max(worst, psi4)
    return worst / b_sum ** 2 if b_sum > 0.0 else float("inf")
