"""The bias-corrected trace statistic and its standardized test.

statistic_t evaluates T = tr(P X' Omega X P') on the compressed N x r
matrix Y = X P' through Omega's factors (Omega = W'W - C diag(d) C -
diag(e), C = I - QQ'): T = ||W Y||^2 - sum_i d_i ||(C Y)_i||^2 -
sum_i e_i ||y_i||^2, so no N x N matrix is read; it also takes the dense
N x N Omega, the reference form.  The variance, the diagnostics and the
exact variance decomposition read Omega between row classes (ClassWeights)
and likewise accept the dense form.  run_test wires the full pipeline
(projections, per-group scatter, variance estimate, decision) for a single
dataset, while TraceTestEngine precomputes every design-dependent quantity
so Monte Carlo drivers pay only the data-dependent cost per replication.
The module also provides the population functionals (the hypothesis
distance q, the exact variance decomposition, the asymptotic power curve)
and computable diagnostics for the regularity conditions the normal
approximation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import sqrt

import numpy as np
from scipy.special import ndtr, ndtri

from .covariance import lookup
from .design import (
    DesignSpec,
    OmegaFactors,
    ProjectionSet,
    build_projections,
    class_pairs,
    group_spans,
    omega_sq_block_sums,
    pair_counts,
)
from .errors import ConfigError
from .estimators import (
    GroupedSample,
    compress,
    estimate_variance,
    sigma0_from_blocks,
    variance_design,
    variance_from_data,
)

# q / sqrt(sigma^2) beyond which the asymptotic power is reported as 1.
LARGE_SIGNAL_CUTOFF = 40.0


@dataclass(frozen=True)
class DiagnosticsReport:
    """Computable surrogates for the regularity conditions.

    rho_n is the spread of the nonzero squared omega weights; a2_ratio the
    worst fourth-order trace over the squared sum of second-order traces on
    the active blocks; a3_ratio the mean-signal concentration ratio (exactly
    0 when every weighted mean vector vanishes).  d1_bound is the fourth
    moment bound of the error generator when known.  heuristic marks
    plug-in (data-mode) values, where sample scatters stand in for the
    population compressed covariances.
    """

    rho_n: float
    a2_ratio: float
    a3_ratio: float
    d1_bound: float | None
    heuristic: bool
    group_imbalance: float


@dataclass(frozen=True)
class TestReport:
    """Outcome of the standardized trace test on one dataset."""

    t_stat: float
    sigma0_sq_hat: float
    z: float
    p_value: float
    alpha: float
    reject: bool
    degenerate: bool
    diagnostics: DiagnosticsReport | None = None


@dataclass(frozen=True, eq=False)
class MeanModel:
    """A fully specified mean matrix and per-group covariances, used for
    power analysis and simulation truth."""

    theta: np.ndarray
    sigmas: tuple[np.ndarray, ...]

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2:
            raise ValueError(f"theta must be 2-D, got shape {theta.shape}")
        object.__setattr__(self, "theta", theta)
        sigmas = tuple(np.asarray(S, dtype=float) for S in self.sigmas)
        for i, S in enumerate(sigmas):
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise ValueError(f"covariance {i} must be square, got {S.shape}")
        object.__setattr__(self, "sigmas", sigmas)


def statistic_t(X, compressor, omega) -> float:
    """The bias-corrected trace statistic T = tr(P X' Omega X P') for the
    design's row compressor P (a square one is skipped, see compress).

    omega is either the OmegaFactors of the design, which form no N x N
    matrix, or the dense N x N weight matrix, the reference form.
    """
    Y = compress(X, compressor)
    if isinstance(omega, OmegaFactors):
        return omega.quadratic_form(Y)
    return float(np.sum((np.asarray(omega, dtype=float) @ Y) * Y))


def _decide(t: float, sigma0_sq: float, alpha: float):
    """Standardize and decide; a non-positive variance estimate zeroes the
    statistic through an indicator and can never reject."""
    degenerate = not sigma0_sq > 0.0
    z = 0.0 if degenerate else t / sqrt(sigma0_sq)
    p_value = float(ndtr(-z))
    reject = (not degenerate) and z > float(ndtri(1.0 - alpha))
    return z, p_value, reject, degenerate


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"significance level must lie in (0, 1), got {alpha}")
    return alpha


class TraceTestEngine:
    """Design-dependent precomputation for repeated testing of N x p samples.

    Safe to share across threads: after construction every method is a pure
    function of its arguments.
    """

    def __init__(self, design: DesignSpec, alpha: float = 0.05):
        self.design = design
        self.alpha = _check_alpha(alpha)
        self.projections = build_projections(design)
        self._variance = variance_design(design, self.projections.weights)

    @property
    def omega(self) -> np.ndarray:
        """The dense N x N weight matrix, expanded from the class weights on
        first read; neither set-up nor any replication reads it."""
        return self.projections.omega

    def statistics(self, X: np.ndarray):
        """Raw ingredients (t, a2, b, sigma0_sq) for one data matrix."""
        design = self.design
        if X.shape != (design.N, design.p):
            raise ConfigError(
                f"data shape {X.shape} does not match design ({design.N}, {design.p})")
        P = self.projections.compressor
        t = statistic_t(X, P, self.projections.factors)
        est = variance_from_data(X, design, P, self._variance)
        return t, est.a2, est.b, est.sigma0_sq

    def test_matrix(self, X: np.ndarray) -> TestReport:
        """Run the standardized test on one N x p data matrix."""
        t, _, _, sigma0_sq = self.statistics(X)
        z, p_value, reject, degenerate = _decide(t, sigma0_sq, self.alpha)
        return TestReport(t_stat=t, sigma0_sq_hat=sigma0_sq, z=z,
                          p_value=p_value, alpha=self.alpha, reject=reject,
                          degenerate=degenerate)


def run_test(sample: GroupedSample, design: DesignSpec, alpha: float = 0.05,
             *, diagnostics: bool = False) -> TestReport:
    """Full pipeline on one dataset: projections, variance estimate,
    statistic, standardization, decision.

    A non-positive variance estimate yields z = 0, p = 0.5, reject = False
    and the degenerate flag.  With diagnostics=True the report carries
    plug-in condition diagnostics (sample scatters substituted for the
    population compressed covariances, marked heuristic).
    """
    alpha = _check_alpha(alpha)
    proj = build_projections(design)
    est = estimate_variance(sample, design, proj)
    t = statistic_t(sample.X, proj.compressor, proj.factors)
    z, p_value, reject, degenerate = _decide(t, est.sigma0_sq, alpha)
    diag = None
    if diagnostics:
        diag = assumption_diagnostics(est.s, proj.weights, design.group_sizes,
                                      heuristic=True)
    return TestReport(t_stat=t, sigma0_sq_hat=est.sigma0_sq, z=z,
                      p_value=p_value, alpha=alpha, reject=reject,
                      degenerate=degenerate, diagnostics=diag)


def true_q(theta, design: DesignSpec) -> float:
    """Population distance functional: the weighted squared Frobenius norm of
    L theta R', zero exactly when the null holds."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (design.k, design.q):
        raise ValueError(
            f"theta must be {design.k} x {design.q}, got {theta.shape}")
    C = design.L @ theta @ design.R.T
    if not np.any(C):
        return 0.0
    GA, GB = design.hypothesis_grams
    return float(np.trace(np.linalg.solve(GA, C) @ np.linalg.solve(GB, C.T)))


def _class_means(theta, design: DesignSpec, proj: ProjectionSet) -> np.ndarray:
    """u x r compressed mean rows A theta B' P' at the class representatives."""
    A_u = design.A[proj.weights.classes.first]
    return compress(A_u @ np.asarray(theta, dtype=float) @ design.B.T, proj.compressor)


def mean_weight_rows(theta, design: DesignSpec,
                     projections: ProjectionSet | None = None) -> np.ndarray:
    """u x p matrix, one row per row class: the omega-weighted mean
    direction the statistic's cross term projects the error of each row of
    the class onto, sum_{j != i} omega_ij (A theta B' P')_j P (P' P = I
    for a square P, which is skipped)."""
    proj = projections if projections is not None else build_projections(design)
    w = proj.weights
    coef = w.omega * w.classes.sizes
    coef[np.diag_indices_from(coef)] -= np.diag(w.omega)
    return compress(coef @ _class_means(theta, design, proj), proj.compressor.T)


def _compressed_covariance(S, compressor) -> np.ndarray:
    """The symmetric part of (P S P')' for the row compressor P, through
    compress (S' itself for a square, orthogonal P, under which every trace
    of the test is invariant).  Every gate judges a covariance by its
    symmetric part, so the traces are those of symmetric matrices; for an
    exactly symmetric S the symmetrization changes no bit."""
    Psi = compress(compress(S, compressor).T, compressor)
    return (Psi + Psi.T) / 2.0


def _check_covariances(model: MeanModel, design: DesignSpec, entries=None) -> None:
    """Count, shapes and positive definiteness of the model's covariances,
    the verdicts read from their covariance cache entries (looked up when
    omitted)."""
    if len(model.sigmas) != design.g:
        raise ValueError(
            f"{len(model.sigmas)} covariances for {design.g} groups")
    if entries is None:
        entries = lookup(model.sigmas)[0]
    for i, (S, entry) in enumerate(zip(model.sigmas, entries)):
        if S.shape != (design.p, design.p):
            raise ValueError(
                f"covariance {i} has shape {S.shape}, expected ({design.p}, {design.p})")
        if not entry.is_positive_definite(S):
            raise ValueError(f"covariance {i} is not positive definite")


def sigma_full(model: MeanModel, design: DesignSpec,
               projections: ProjectionSet | None = None,
               entries=None) -> tuple[float, float]:
    """Exact variance decomposition (sigma_sq, sigma0_sq) of the statistic
    under the model; the two coincide when the null holds, and are equal
    without the mean terms when A theta B' is exactly zero.  entries are
    the covariance cache entries of model.sigmas (looked up when
    omitted)."""
    _check_covariances(model, design, entries)
    if model.theta.shape != (design.k, design.q):
        raise ValueError(
            f"theta must be {design.k} x {design.q}, got {model.theta.shape}")
    proj = projections if projections is not None else build_projections(design)
    g = design.g
    psis = [_compressed_covariance(S, proj.compressor) for S in model.sigmas]
    a = np.array([float(np.sum(Psi * Psi)) for Psi in psis])
    b = np.zeros((g, g))
    for i in range(g):
        for j in range(i + 1, g):
            b[i, j] = b[j, i] = float(np.sum(psis[i] * psis[j]))
    sigma0_sq = sigma0_from_blocks(
        omega_sq_block_sums(proj.weights, design.group_sizes), a, b)
    classes = proj.weights.classes
    if not np.any(design.A[classes.first] @ model.theta @ design.B.T):
        return sigma0_sq, sigma0_sq
    spread = _mean_term_spread(mean_weight_rows(model.theta, design, proj),
                               model.sigmas, group_spans(classes.group, g))
    return sigma0_sq + 4.0 * float(classes.sizes @ spread), sigma0_sq


def _mean_term_spread(m_rows, sigmas, slices) -> np.ndarray:
    """m Sigma m' for each row m of m_rows, Sigma the covariance of its
    group; slices gives the rows of each group."""
    out = np.empty(m_rows.shape[0])
    for i, sl in enumerate(slices):
        M_i = m_rows[sl]
        out[sl] = np.sum((M_i @ np.asarray(sigmas[i], dtype=float)) * M_i, axis=1)
    return out


def asymptotic_power(q: float, sigma2: float, sigma0_sq: float,
                     epsilon: float) -> float:
    """Limiting rejection probability at signal q and variances
    (sigma2, sigma0_sq); equals epsilon at q = 0 and 1 for large signals."""
    epsilon = _check_alpha(epsilon)
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if sigma0_sq < 0.0:
        raise ValueError(f"sigma0_sq must be non-negative, got {sigma0_sq}")
    snr = q / sqrt(sigma2)
    if snr >= LARGE_SIGNAL_CUTOFF:
        return 1.0
    return float(ndtr(-sqrt(sigma0_sq / sigma2) * float(ndtri(1.0 - epsilon)) + snr))


def assumption_diagnostics(psis, omega, group_sizes, *,
                           m_rows=None, sigmas=None, m_scale: float | None = None,
                           heuristic: bool = False,
                           d1_bound: float | None = None) -> DiagnosticsReport:
    """Diagnostics for the regularity conditions behind the normal limit.

    omega is the ClassWeights of the design or a dense N x N weight matrix.
    psis are the symmetric compressed per-group covariances (population
    matrices in simulation mode, sample scatters in plug-in mode).
    m_rows/sigmas feed the mean-concentration ratio, m_rows with one row per
    row class of ClassWeights or per row of a dense omega; when omitted
    (plug-in mode, or a model whose weighted means vanish) that ratio is
    exactly 0.
    """
    sizes = tuple(int(n) for n in group_sizes)
    g = len(sizes)
    w, n, group = class_pairs(omega, sizes)
    if sum(sizes) != n.sum():
        raise ValueError(f"group sizes sum to {sum(sizes)} but omega has "
                         f"{n.sum():g} rows")

    present = pair_counts(n) > 0.0
    vals = w[present] ** 2
    scale = float(np.sqrt(np.max(vals, initial=0.0)))
    nz = vals[vals > (1e-12 * scale) ** 2] if scale > 0.0 else vals[vals > 0]
    if nz.size == 0:
        raise ValueError("all off-diagonal omega weights vanish; "
                         "the weight-spread diagnostic is undefined")
    rho_n = float(np.max(vals) / np.min(nz))

    active = omega_sq_block_sums(omega, sizes) > 0.0
    psis = [np.asarray(Psi, dtype=float) for Psi in psis]
    if len(psis) != g:
        raise ValueError(f"{len(psis)} compressed covariances for {g} groups")
    # One row of V per active pair: the product Psi_a Psi_b, flattened.  For
    # symmetric psis tr(Psi_a Psi_b Psi_c Psi_d) = <Psi_a Psi_b, Psi_d Psi_c>,
    # so the Gram matrix V V' holds every fourth-order trace.
    pairs = [(i, j) for i in range(g) for j in range(g) if active[i, j]]
    r = psis[0].shape[0]
    V = np.empty((len(pairs), r * r))
    b_sum = 0.0
    for k, (i, j) in enumerate(pairs):
        b_sum += float(np.trace(np.matmul(psis[i], psis[j], out=V[k].reshape(r, r))))
    M = V @ V.T
    row = {pair: k for k, pair in enumerate(pairs)}
    worst = 0.0
    for a, b, c, d in product(range(g), repeat=4):
        if all(active[x, y] for x, y in permutations((a, b, c, d), 2)):
            worst = max(worst, float(M[row[a, b], row[d, c]]))
    a2_ratio = worst / b_sum ** 2 if b_sum > 0.0 else float("inf")

    if m_rows is None:
        a3_ratio = 0.0
    else:
        m_rows = np.asarray(m_rows, dtype=float)
        ref = m_scale if m_scale is not None else float(np.max(np.abs(m_rows), initial=0.0))
        if float(np.max(np.abs(m_rows), initial=0.0)) <= 1e-10 * max(ref, 0.0):
            a3_ratio = 0.0
        else:
            if sigmas is None:
                raise ValueError("sigmas are required when m_rows are nonzero")
            spread = _mean_term_spread(m_rows, sigmas, group_spans(group, g))
            a3_ratio = float((n @ spread ** 2) / (n @ spread) ** 2)

    return DiagnosticsReport(rho_n=rho_n, a2_ratio=a2_ratio, a3_ratio=a3_ratio,
                             d1_bound=d1_bound, heuristic=heuristic,
                             group_imbalance=float(max(sizes)) / float(min(sizes)))


def model_diagnostics(model: MeanModel, design: DesignSpec,
                      projections: ProjectionSet | None = None,
                      d1_bound: float | None = None) -> DiagnosticsReport:
    """Population-mode diagnostics for a fully specified model."""
    _check_covariances(model, design)
    proj = projections if projections is not None else build_projections(design)
    P = proj.compressor
    psis = [_compressed_covariance(S, P) for S in model.sigmas]
    m_rows = mean_weight_rows(model.theta, design, proj)
    m_scale = float(np.max(np.abs(_class_means(model.theta, design, proj)), initial=0.0))
    return assumption_diagnostics(psis, proj.weights, design.group_sizes,
                                  m_rows=m_rows, sigmas=model.sigmas,
                                  m_scale=m_scale, heuristic=False,
                                  d1_bound=d1_bound)
