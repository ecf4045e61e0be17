"""The bias-corrected trace statistic and its standardized test.

statistic_t evaluates T = tr(P X' Omega X P') on the compressed N x r
matrix Y = X P' through Omega's factors (Omega = W'W - C diag(d) C -
diag(e), C = I - QQ'): T = ||W Y||^2 - sum_i d_i ||(C Y)_i||^2 -
sum_i e_i ||y_i||^2, read from one centring of Y on the groups' basis
(design.OmegaFactors.centre, the pass the variance estimate reads too;
estimators.gram_stack reads Grams through the same factors), so no
N x N matrix is read; it also takes the dense N x N Omega, the reference
form.  The variance, the diagnostics and the exact variance decomposition
read Omega between row classes only (ClassWeights, with its cached
omega o omega block sums, class sizes and groups), the mean through the
compressed class rows of mean_rows and every covariance through its
compressed Psi_i = P Sigma_i P' (_compressed_covariance), as tr(Psi_i Psi_j)
and m Psi_i m'.
run_test wires the full pipeline (projections, per-group scatter,
variance estimate, decision) for a single dataset,
while TraceTestEngine precomputes every design-dependent quantity so
Monte Carlo drivers pay only the data-dependent cost per replication.
The module also provides the population functionals (the hypothesis
distance q, the exact variance decomposition, the asymptotic power
curve) and computable diagnostics for the regularity conditions the
normal approximation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from math import sqrt

import numpy as np
from scipy.special import ndtr, ndtri

from .covariance import lookup
from .design import (
    DesignSpec,
    OmegaFactors,
    ProjectionSet,
    group_spans,
    pair_counts,
)
from .errors import ConfigError
from .estimators import (
    GroupedSample,
    centred_stack,
    compress,
    estimate_variance,
    gram_stack,
    sigma0_from_blocks,
)

# q / sqrt(sigma^2) beyond which the asymptotic power is reported as 1.
LARGE_SIGNAL_CUTOFF = 40.0
# The largest entry of the compressed covariances that assumption_diagnostics
# reads unscaled.
PSI_WINDOW = (2.0 ** -200, 2.0 ** 200)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Computable surrogates for the regularity conditions.

    rho_n is the spread of the nonzero squared omega weights; a2_ratio the
    worst fourth-order trace over the squared sum of second-order traces on
    the active blocks; a3_ratio the mean-signal concentration ratio (exactly
    0 when every weighted mean vector vanishes).  heuristic marks
    plug-in (data-mode) values, where sample scatters stand in for the
    population compressed covariances.
    """

    rho_n: float
    a2_ratio: float
    a3_ratio: float
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
        if not np.isfinite(theta).all():
            raise ConfigError("theta has non-finite entries")
        object.__setattr__(self, "theta", theta)
        sigmas = tuple(np.asarray(S, dtype=float) for S in self.sigmas)
        for i, S in enumerate(sigmas):
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise ValueError(f"covariance {i} must be square, got {S.shape}")
            if not np.isfinite(S).all():
                raise ConfigError(f"covariance {i} has non-finite entries")
        object.__setattr__(self, "sigmas", sigmas)


def statistic_t(X, compressor, omega) -> float:
    """The bias-corrected trace statistic T = tr(P X' Omega X P') for the
    design's row compressor P, in any form compress applies.

    omega is either the OmegaFactors of the design, which form no N x N
    matrix, or the dense N x N weight matrix, the reference form.
    """
    Y = compress(X, compressor)
    if isinstance(omega, OmegaFactors):  # one centring, O(N (K + ell) r)
        return float(omega.centre(Y, Y.shape[1])[0][0])
    return float(np.sum((np.asarray(omega, dtype=float) @ Y) * Y))


def _decide(t, sigma0_sq, alpha: float):
    """Standardize and decide; a non-positive variance estimate zeroes the
    statistic through an indicator and can never reject.  For arrays of t
    and sigma0_sq, (z, p_value, reject, degenerate) are arrays too."""
    degenerate = ~(np.asarray(sigma0_sq) > 0.0)
    z = np.where(degenerate, 0.0, t / np.sqrt(np.where(degenerate, 1.0, sigma0_sq)))
    p_value = ndtr(-z)
    reject = ~degenerate & (z > float(ndtri(1.0 - alpha)))
    if degenerate.ndim == 0:
        return float(z), float(p_value), bool(reject), bool(degenerate)
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
        self.projections = design.projections
        # The variance's design constants; tau raises for a group without an a2.
        design.tau, self.projections.weights.block_sums

    @property
    def omega(self) -> np.ndarray:
        """The dense N x N weight matrix, expanded from the class weights on
        first read; neither set-up nor any replication reads it."""
        return self.projections.omega

    def statistics(self, X: np.ndarray):
        """Raw ingredients (t, a2, b, sigma0_sq) for one N x p data matrix.

        X may also be a stack of B matrices: (B, N, r) rows already
        compressed, or, when r > N, (B, N, N) Grams E E' of compressed
        rows E.  t and sigma0_sq are then arrays of B values, a2 is B x g
        and b is B x g x g.  Rows are read by estimators.centred_stack,
        which centres them once on the groups' block-diagonal basis and
        takes t and the variance from that one pass.  A Gram stack is read
        at N x N size only, by estimators.gram_stack, through one product
        with the same basis.  Both are exact for any rows, but a large mean
        in the rows costs digits of sigma0_sq when they are centred, so
        monte_carlo passes the errors and adds the mean's exact shift of t.
        """
        N, p, r = self.design.N, self.design.p, self.design.r
        gram = r > N and X.ndim == 3 and X.shape[1:] == (N, N)
        if not (gram or X.shape == (N, p) or X.ndim == 3 and X.shape[1:] == (N, r)):
            grams = f", or (B, {N}, {N}) Grams of compressed rows" if r > N else ""
            raise ConfigError(
                f"data shape {X.shape} does not match design: expected ({N}, {p}), "
                f"or a stack of (B, {N}, {r}) compressed rows{grams}")
        Y = X if X.ndim == 3 else compress(X, self.projections.thin)[None]
        t, _, a2, b, sigma0_sq = (gram_stack if gram else centred_stack)(Y, self.design)
        if X.ndim == 2:
            return float(t[0]), a2[0], b[0], float(sigma0_sq[0])
        return t, a2, b, sigma0_sq

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
    est = estimate_variance(sample, design)  # checks the sample first
    proj = design.projections
    t = statistic_t(sample.X, proj.thin, proj.factors)
    z, p_value, reject, degenerate = _decide(t, est.sigma0_sq, alpha)
    diag = None
    if diagnostics:
        diag = assumption_diagnostics(est.s, proj.weights, heuristic=True)
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
    C = design.L @ theta
    if design.response is None:
        C = C @ design.R.T
    elif design.response == "differences":
        # C D' vanishes exactly when each row of C is constant, and
        # C D' (D D')^{-1} D C' = C Pi C' for the centring Pi = I - 11'/p.
        if not np.any(np.diff(C, axis=1)):
            return 0.0
        C = C - np.mean(C, axis=1, keepdims=True)
    if not np.any(C):
        return 0.0
    GA, GB = design.hypothesis_grams
    right = C.T if GB is None else np.linalg.solve(GB, C.T)
    return float(np.trace(np.linalg.solve(GA, C) @ right))


def mean_rows(theta, design: DesignSpec):
    """(M, WM), u x r each, at the class representatives: the compressed
    class means M (rows of A theta B' P') and the omega-weighted rows WM,
    whose row for a class is (Omega M)_i = sum_{j != i} omega_ij M_j at
    each row i of it.  None when M is exactly zero; ValueError unless
    theta is k x q, and ConfigError when the squares of M or WM overflow."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (design.k, design.q):
        raise ValueError(f"theta must be {design.k} x {design.q}, got {theta.shape}")
    proj = design.projections
    w = proj.weights
    with np.errstate(over="ignore", invalid="ignore"):
        M = compress(design.mean(theta, w.classes.first), proj.thin)
        if not np.any(M):
            return None
        coef = w.omega * w.classes.sizes
        coef[np.diag_indices_from(coef)] -= np.diag(w.omega)
        WM = coef @ M
        scale = np.sum(M * M) + np.sum(WM * WM)
    if not np.isfinite(scale):
        raise ConfigError("theta is too large: the squares of its class means "
                          "A theta B' overflow")
    return M, WM


def _compressed_covariance(S, compressor, entry) -> np.ndarray:
    """The symmetric part of (P S P')' for the row compressor P, through
    compress.  Every gate judges a covariance by its symmetric part, so the
    traces are those of symmetric matrices.  Under a skipped P (None; every
    trace of the test is invariant under an orthogonal P), an S that its
    covariance cache entry judges exactly symmetric is returned itself, as
    the symmetrization would change no bit, and no p x p matrix is formed."""
    if compressor is None and entry.is_symmetric(S):
        return S
    Psi = compress(compress(S, compressor).T, compressor)
    return (Psi + Psi.T) / 2.0


def _check_covariances(model: MeanModel, design: DesignSpec, entries=None):
    """Count, shapes and positive definiteness of the model's covariances,
    the verdicts read from their covariance cache entries (looked up when
    omitted), which are returned."""
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
    return entries


def _psis(model: MeanModel, design: DesignSpec, compressor, entries=None):
    """The compressed covariances Psi_i of the model's checked covariances
    (see _check_covariances) under the row compressor, through
    _compressed_covariance: all that the model side reads of them."""
    entries = _check_covariances(model, design, entries)
    return [_compressed_covariance(S, compressor, entry)
            for S, entry in zip(model.sigmas, entries)]


def sigma_full(model: MeanModel, design: DesignSpec,
               projections: ProjectionSet | None = None,
               entries=None) -> tuple[float, float]:
    """Exact variance decomposition (sigma_sq, sigma0_sq) of the statistic
    under the model; the two coincide when the null holds, and are equal
    without the mean terms when mean_rows finds no mean.  projections
    are the design's (design.projections when omitted) and entries the
    covariance cache entries of model.sigmas (looked up when omitted).
    The traces are dot products of the compressed covariances Psi_i, and
    the mean term reads m Psi_i m' of the Omega-weighted compressed class
    rows m of mean_rows."""
    proj = design.projections if projections is None else projections
    psis = _psis(model, design, proj.thin, entries)
    g = design.g
    b = np.empty((g, g))
    for i in range(g):
        for j in range(i, g):
            b[i, j] = b[j, i] = float(np.vdot(psis[i], psis[j]))
    sigma0_sq = sigma0_from_blocks(proj.weights.block_sums, b.diagonal(), b)
    rows = mean_rows(model.theta, design)
    if rows is None:
        return sigma0_sq, sigma0_sq
    classes = proj.weights.classes
    spread = _mean_term_spread(rows[1], psis, group_spans(classes.group, g))
    return sigma0_sq + 4.0 * float(classes.sizes @ spread), sigma0_sq


def _mean_term_spread(m_rows, psis, slices) -> np.ndarray:
    """m Psi m' for each compressed row m of m_rows, Psi the compressed
    covariance of its group; slices gives the rows of each group."""
    out = np.empty(m_rows.shape[0])
    for i, sl in enumerate(slices):
        M_i = m_rows[sl]
        out[sl] = np.sum((M_i @ psis[i]) * M_i, axis=1)
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


def assumption_diagnostics(psis, omega, *, m_rows=None, m_scale: float | None = None,
                           heuristic: bool = False) -> DiagnosticsReport:
    """Diagnostics for the regularity conditions behind the normal limit.

    omega is the ClassWeights of the design, whose class sizes and groups
    give the group sizes of group_imbalance.  psis are the symmetric
    compressed per-group covariances (population matrices in simulation
    mode, sample scatters in plug-in mode).  m_rows, the Omega-weighted
    compressed mean rows with one row per row class, feed the
    mean-concentration ratio through m Psi m'; it is exactly 0 when they
    are omitted (plug-in mode, or a model without a mean) or all within
    1e-10 of m_scale, the largest compressed mean entry.

    a2_ratio reads one syrk Psi' Psi per group in an active pair, and
    multiplies two psis only for a tuple whose Cauchy-Schwarz bound beats
    the largest tr(Psi_a^4) on an active diagonal block, so no stack of
    pair products is formed.
    """
    w, n, group = omega.omega, omega.classes.sizes.astype(float), omega.classes.group
    sizes = np.bincount(group, weights=n)
    g = len(sizes)

    present = pair_counts(n) > 0.0
    vals = w[present] ** 2
    scale = float(np.sqrt(np.max(vals, initial=0.0)))
    nz = vals[vals > (1e-12 * scale) ** 2] if scale > 0.0 else vals[vals > 0]
    if nz.size == 0:
        raise ValueError("all off-diagonal omega weights vanish; "
                         "the weight-spread diagnostic is undefined")
    rho_n = float(np.max(vals) / np.min(nz))

    active = omega.block_sums > 0.0
    psis = [np.asarray(Psi, dtype=float) for Psi in psis]
    if len(psis) != g:
        raise ValueError(f"{len(psis)} compressed covariances for {g} groups")
    # The ratios are scale-free.  Psis whose largest entry, which lies on a
    # diagonal, is outside PSI_WINDOW are scaled by one power of two, exactly,
    # so that their fourth-order traces stay normal floats.
    top = max(float(np.max(np.abs(np.diagonal(Psi)), initial=0.0)) for Psi in psis)
    if top > 0.0 and not PSI_WINDOW[0] <= top <= PSI_WINDOW[1]:
        psis = [np.ldexp(Psi, -np.frexp(top)[1]) for Psi in psis]
    # For symmetric psis, Cauchy-Schwarz twice gives |tr(Psi_a Psi_b Psi_c
    # Psi_d)| = |<Psi_a Psi_b, Psi_d Psi_c>| <= (q_a q_b q_c q_d)^(1/4), where
    # q_a = ||Psi_a^2||_F^2 is the trace of the tuple (a, a, a, a).  Only a
    # tuple holding a group whose own block is inactive can beat the largest
    # active q_a; such tuples are evaluated, in order of their bounds.
    q = np.zeros(g)
    b_sum = 0.0
    for i in np.flatnonzero(active.any(axis=1)):
        square = psis[i].T @ psis[i]  # one syrk
        q[i] = float(np.vdot(square, square))
        del square
        for j in range(i, g):
            if active[i, j]:
                b_sum += (1.0 if i == j else 2.0) * float(np.vdot(psis[i], psis[j]))
    worst = float(np.max(q[np.diag(active)], initial=0.0))
    root = np.sqrt(np.sqrt(q))
    candidates = sorted(
        ((float(root[a] * root[b] * root[c] * root[d]), (a, b, c, d))
         for a, b, c, d in product(range(g), repeat=4)
         if all(active[x, y] for x, y in permutations((a, b, c, d), 2))),
        reverse=True)
    pair_product = cache(lambda a, b: psis[a] @ psis[b])
    for bound, (a, b, c, d) in candidates:
        if bound <= worst * (1.0 + 1e-14):  # rounding of a bound it attains
            break
        worst = max(worst, float(np.vdot(pair_product(a, b), pair_product(d, c))))
    a2_ratio = worst / b_sum ** 2 if b_sum > 0.0 else float("inf")

    a3_ratio = 0.0
    if m_rows is not None:
        m_rows = np.asarray(m_rows, dtype=float)
        top = float(np.max(np.abs(m_rows), initial=0.0))
        if top > 1e-10 * max(top if m_scale is None else m_scale, 0.0):
            spread = _mean_term_spread(m_rows, psis, group_spans(group, g))
            a3_ratio = float((n @ spread ** 2) / (n @ spread) ** 2)

    return DiagnosticsReport(rho_n=rho_n, a2_ratio=a2_ratio, a3_ratio=a3_ratio,
                             heuristic=heuristic,
                             group_imbalance=float(sizes.max() / sizes.min()))


def model_diagnostics(model: MeanModel, design: DesignSpec) -> DiagnosticsReport:
    """Population-mode diagnostics for a fully specified model."""
    proj = design.projections
    psis = _psis(model, design, proj.thin)
    rows = mean_rows(model.theta, design)
    m_rows = m_scale = None
    if rows is not None:
        m_rows, m_scale = rows[1], float(np.max(np.abs(rows[0])))
    return assumption_diagnostics(psis, proj.weights, m_rows=m_rows, m_scale=m_scale)
