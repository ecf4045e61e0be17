"""Error generation and Monte Carlo size/power experiments.

Error distributions all have mean zero and identity covariance per
component and satisfy the vanishing-odd-mixed-fourth-moment requirement,
either through ellipticity or through independent standardized components.
Replication j of a run draws from an independent counter-based substream
keyed by (seed, j); each worker thread keeps one generator and re-keys it
per replication, which draws the same bits.

A call's draw plan (_plan) picks its route "<colouring>/<slot>" once.
The colouring is "eigenbasis" when every group's law is spherical
(gaussian or elliptical_t), the compressor is skipped (r = p) and the covariances
share one eigenbasis V (one full covariance, every other one exactly
c I): standard rows Z are drawn in V with their columns scaled by the
square roots of the eigenvalues Lambda, one O(n_i p) pass, and the data
matrix of replication j is defined as (Z Lambda^(1/2)) V' + A theta B',
equal in law to, but not bitwise, the "root" colouring, which multiplies
each group's standard rows by the covariance's symmetric root or scales
them by the square roots of a diagonal one.  The slot, what
TraceTestEngine.statistics reads, is "rows" drawn in place (skipped
compressor, r <= N), "compressed" rows E P' (r <= N < p) or "gram", the
N x N Gram of those (r > N).  The benchmark workloads take
eigenbasis/rows (N = 1000, p = 300, B = 1), eigenbasis/gram (N = 100,
p = 600, B = 3) and root/compressed (N = 1200, p = 60, r = 3, B = 9).

Each worker thread fills one reused stack of B slots, holding the errors
only, and one statistics call evaluates it; the mean shifts each T
exactly, read through its Omega-weighted class rows (trace_test.mean_rows)
in the slot's basis.  B is the largest count whose stack fits
BATCH_BYTES (at least 1, at most MAX_BATCH), so it depends on the
design's shape alone, and each replication's T and sigma0 are within
1e-12 (relative to the terms they sum) of the one-matrix statistic.
numpy's OpenBLAS runs on one thread while a run lasts, so serial and
thread-parallel executions produce bitwise-identical summaries.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.stats import kstest

from .blas import one_blas_thread
from .covariance import lookup
from .design import DesignSpec, _read_only
from .errors import ConfigError
from .estimators import compress
from .trace_test import (
    MeanModel,
    TraceTestEngine,
    _check_covariances,
    _decide,
    asymptotic_power,
    mean_rows,
    sigma_full,
    true_q,
)

_MASK64 = (1 << 64) - 1

# Monte Carlo chunks: the largest replication count whose stack, (B, N, r)
# compressed errors or (B, N, N) error Grams, fits BATCH_BYTES, at least 1
# and at most MAX_BATCH.
BATCH_BYTES = 256 * 1024
MAX_BATCH = 64

_log = logging.getLogger(__name__)

DISTRIBUTION_KINDS = ("gaussian", "elliptical_t", "standardized_gamma", "rademacher")
COVARIANCE_KINDS = ("identity", "compound_symmetry", "ar1", "diagonal_ramp")


def _substream(seed: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one replication, keyed by (seed, index)."""
    key = (int(seed) & _MASK64) + (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyed(local: threading.local, seed: int, index: int) -> np.random.Generator:
    """This thread's generator in local, set to the start of the substream
    (seed, index): the state of a fresh Philox with key words
    [seed & 2^64-1, index], so its draws are bitwise those of
    _substream(seed, index), without building a generator per replication."""
    if not hasattr(local, "rng"):
        bit_generator = np.random.Philox(key=0)
        local.rng, local.state = np.random.Generator(bit_generator), bit_generator.state
    local.state["state"]["key"][:] = (int(seed) & _MASK64, int(index))
    local.rng.bit_generator.state = local.state
    return local.rng


@dataclass(frozen=True)
class ErrorDistribution:
    """A p-variate error generator with mean 0 and identity covariance."""

    kind: str
    df: float | None = None
    shape: float | None = None

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}; "
                              f"choose from {DISTRIBUTION_KINDS}")
        if self.kind == "elliptical_t":
            if self.df is None or not self.df > 4:
                raise ConfigError(
                    f"elliptical_t needs df > 4 for finite fourth moments, got {self.df}")
        elif self.kind == "standardized_gamma":
            if self.shape is None or not self.shape > 0:
                raise ConfigError(f"standardized_gamma needs shape > 0, got {self.shape}")

    @classmethod
    def gaussian(cls) -> "ErrorDistribution":
        return cls(kind="gaussian")

    @classmethod
    def elliptical_t(cls, df: float) -> "ErrorDistribution":
        return cls(kind="elliptical_t", df=float(df))

    @classmethod
    def standardized_gamma(cls, shape: float) -> "ErrorDistribution":
        return cls(kind="standardized_gamma", shape=float(shape))

    @classmethod
    def rademacher(cls) -> "ErrorDistribution":
        return cls(kind="rademacher")

    @property
    def spherical(self) -> bool:
        """Whether the law of a row is invariant under orthogonal maps."""
        return self.kind in ("gaussian", "elliptical_t")

    def sample(self, rng: np.random.Generator, n: int, p: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """n i.i.d. rows of the standardized p-variate distribution, written
        into out (a C-contiguous n x p float array) when it is given."""
        if out is None:
            out = np.empty((n, p))
        if self.kind == "rademacher":
            np.multiply(rng.integers(0, 2, size=(n, p)), 2.0, out=out)
            out -= 1.0
        elif self.kind == "standardized_gamma":
            if self.shape == 1.0:  # standard_gamma(1) draws the exponential, bit for bit
                rng.standard_exponential(out=out)
                out -= 1.0
            else:
                rng.standard_gamma(self.shape, out=out)
                out -= self.shape
                out /= sqrt(self.shape)
        else:
            rng.standard_normal(out=out)
            if self.kind == "elliptical_t":
                out *= np.sqrt((self.df - 2.0) / rng.chisquare(self.df, size=n))[:, None]
        return out


@dataclass(frozen=True)
class CovarianceSpec:
    """Parametric covariance structure with a cached symmetric square root."""

    kind: str
    rho: float | None = None
    lo: float | None = None
    hi: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in COVARIANCE_KINDS:
            raise ConfigError(f"unknown covariance kind {self.kind!r}; "
                              f"choose from {COVARIANCE_KINDS}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.kind in ("compound_symmetry", "ar1"):
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise ConfigError(f"{self.kind} needs rho in (-1, 1), got {self.rho}")
        if self.kind == "diagonal_ramp":
            if self.lo is None or self.hi is None or not 0 < self.lo <= self.hi:
                raise ConfigError(
                    f"diagonal_ramp needs 0 < lo <= hi, got lo={self.lo}, hi={self.hi}")

    def matrix(self, p: int) -> np.ndarray:
        p = int(p)
        if self.kind == "identity":
            S = np.eye(p)
        elif self.kind == "compound_symmetry":
            S = (1.0 - self.rho) * np.eye(p) + self.rho * np.ones((p, p))
        elif self.kind == "ar1":
            idx = np.arange(p)
            S = self.rho ** np.abs(idx[:, None] - idx[None, :])
        else:
            S = np.diag(np.linspace(self.lo, self.hi, p))
        return self.scale * S

    def checked_matrix(self, p: int) -> np.ndarray:
        """The matrix at dimension p once the sum of its squared entries,
        the scale of the variance of T, is a finite normal float and its
        covariance cache entry finds it positive definite, forming no root;
        ConfigError otherwise."""
        S = self.matrix(p)
        with np.errstate(over="ignore"):
            squares = float(np.sum(S * S))
        if not np.finfo(float).tiny <= squares < np.inf:
            raise ConfigError(f"{self.kind} covariance with scale {self.scale:g} is out of "
                              f"range at p={p}: the sum of its squared entries "
                              f"{'overflows' if squares > 1.0 else 'underflows'}")
        try:
            lookup([S])[0][0].spectrum(S)
        except ValueError as exc:
            raise ConfigError(f"{self.kind} {exc} at p={p}") from exc
        return S

    def sqrt(self, p: int) -> np.ndarray:
        """The symmetric square root at dimension p, read-only, from the
        covariance cache."""
        S = self.checked_matrix(p)
        root, _ = lookup([S])[0][0].colouring(S)
        return root if root is not None else _read_only(np.diag(np.sqrt(np.diag(S))))


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregates of one Monte Carlo run."""

    replications: int
    rejection_rate: float
    mc_standard_error: float
    z_mean: float
    z_variance: float
    ks_distance: float
    predicted_power: float
    degenerate_count: int
    seed: int


@dataclass(frozen=True)
class _Plan:
    """How one call draws its replications (see _plan)."""

    route: str
    stack: Callable[[int], np.ndarray]
    fill: Callable[[int, int, np.ndarray], np.ndarray]
    weighted: np.ndarray | None
    offset: float
    errors: Callable[[int, int], np.ndarray]


def _plan(design: DesignSpec, model: MeanModel, dists, entries=None) -> _Plan:
    """The draw plan of a run (see the module docstring for its route),
    one error distribution per group in dists; entries are the cache
    entries of model.sigmas (looked up when omitted).  The mean and the
    covariances are checked as sigma_full checks them.

    stack(B) is the calling thread's chunk stack of B slots, made with its
    scratch buffers on the thread's first call; fill(seed, j, slot) then
    writes replication j's errors into a slot and returns their compressed
    rows Y.  T of the data is T of the errors plus 2 <weighted, Y> +
    offset: the Omega-weighted rows of the compressed mean M in Y's basis
    and tr(M' Omega M), None and 0 for a zero mean.  errors(seed, j)
    returns the N x p errors of replication j."""
    rows = mean_rows(model.theta, design)
    entries = _check_covariances(model, design, entries)
    N, p, r = design.N, design.p, design.r
    spectra = [entry.spectrum(S) for entry, S in zip(entries, model.sigmas)]
    bases = {id(e): basis for e, (_, basis) in zip(entries, spectra) if basis is not None}
    eigenbasis = (len(bases) == 1 and r == p and all(d.spherical for d in dists)
                  and all(basis is not None or np.all(w == w[0]) for w, basis in spectra))
    V = next(iter(bases.values())) if eigenbasis else None
    factors = [(None, np.sqrt(w)) if eigenbasis and basis is not None else entry.colouring(S)
               for entry, S, (w, basis) in zip(entries, model.sigmas, spectra)]
    groups = [(design.group_slice(i), design.group_sizes[i], dists[i], *factors[i])
              for i in range(design.g)]
    thin = design.projections.thin
    PT = None if thin is None or thin.ndim == 1 else np.ascontiguousarray(thin.T)
    local = threading.local()

    def draw(seed: int, j: int, out: np.ndarray) -> np.ndarray:
        rng = _rekeyed(local, seed, j)
        for sl, n, dist, root, scale in groups:
            if root is not None:  # a full root needs the standard rows apart
                np.matmul(dist.sample(rng, n, p), root, out=out[sl])
            else:
                block = dist.sample(rng, n, p, out=out[sl])
                if scale is not None:
                    block *= scale
        return out

    def stack(B: int) -> np.ndarray:
        if not hasattr(local, "stack"):  # this thread's stack and scratch buffers
            local.X = None if thin is None else np.empty((N, p))
            if r > N:
                local.Y, local.stack = np.empty((N, r)), np.empty((B, N, N))
            elif thin is None:
                local.stack = np.empty((B, N, p))
            else:  # laid out over N first, as statistics reads compressed rows
                local.stack = np.empty((N, B, r)).swapaxes(0, 1)
        return local.stack

    def compressed(seed: int, j: int, out: np.ndarray) -> np.ndarray:
        if thin is None:  # a skipped compressor: drawn in place
            return draw(seed, j, out)
        if PT is None:
            out[...] = compress(draw(seed, j, local.X), thin)
            return out
        return np.matmul(draw(seed, j, local.X), PT, out=out)

    def gram(seed: int, j: int, slot: np.ndarray) -> np.ndarray:
        Y = compressed(seed, j, local.Y)
        np.matmul(Y, Y.T, out=slot)  # one syrk
        return Y

    def errors(seed: int, j: int) -> np.ndarray:
        E = draw(seed, j, np.empty((N, p)))
        return E if V is None else E @ V.T

    weighted, offset = None, 0.0
    if rows is not None:
        M, WM = rows
        classes = design.projections.weights.classes
        weighted = (WM if V is None else WM @ V)[classes.index]
        offset = float(classes.sizes @ np.einsum("ij,ij->i", WM, M))
    slot = "gram" if r > N else "rows" if thin is None else "compressed"
    return _Plan(f"{'eigenbasis' if eigenbasis else 'root'}/{slot}", stack,
                 gram if r > N else compressed, weighted, offset, errors)


def replication_sampler(design: DesignSpec, model: MeanModel, dists):
    """draw(seed, j): the N x p data matrix of replication j of a run keyed
    by seed, the errors of its draw plan plus the model's mean A theta B'."""
    errors = _plan(design, model, dists).errors
    mean = design.mean(model.theta)
    return lambda seed, j: errors(seed, j) + mean


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0
    return n or os.cpu_count() or 1


def resolve_threads(threads: int | None) -> int:
    """Thread count from the argument, else GMANOVA_THREADS, else auto (0):
    usable_cpus()."""
    if threads is None:
        env = os.environ.get("GMANOVA_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError as exc:
                raise ConfigError(f"GMANOVA_THREADS must be an integer, got {env!r}") from exc
        else:
            threads = 0
    threads = int(threads)
    if threads < 0:
        raise ConfigError(f"thread count must be non-negative, got {threads}")
    return threads or usable_cpus()


def batch_size(design: DesignSpec) -> int:
    """Replications per Monte Carlo chunk: the largest count whose stack
    fits BATCH_BYTES, in [1, MAX_BATCH].  A chunk holds (B, N, r)
    compressed errors when r <= N, and (B, N, N) error Grams when r > N."""
    width = min(design.N, design.r)
    return max(1, min(MAX_BATCH, BATCH_BYTES // (8 * design.N * width)))


def monte_carlo(design: DesignSpec, model: MeanModel, distributions, alpha: float = 0.05,
                reps: int = 1000, seed: int = 0,
                threads: int | None = None) -> SimulationSummary:
    """Size/power experiment: draw groupwise errors, form the data matrix,
    run the prepared test, and aggregate.

    distributions is one ErrorDistribution per group (a single one is
    broadcast).  The call's draw plan (_plan) fills chunks of
    batch_size(design) replications, and one TraceTestEngine.statistics
    call evaluates each chunk.  A chunk holds the errors only: the mean,
    which lies in the range of A, leaves the variance unchanged and shifts
    T exactly by 2 <Omega M, E> + tr(M' Omega M) for the compressed mean
    M, so a large mean costs no digits of sigma0.

    threads caps the worker threads, each running whole chunks: the call
    starts min(threads, chunks, usable_cpus()) of them.  B depends on the
    design's shape alone, so identical (arguments, seed) produce
    bitwise-identical summaries regardless of the thread count.  numpy's
    OpenBLAS is held at one thread for the whole call (process-wide) and
    restored when the call returns or raises.  The per-covariance set-up
    is read from the covariance cache, and one INFO record on the
    "gmanova.simulate" logger gives the call's timings, the requested and
    used thread counts, B and the plan's route.
    """
    start = time.perf_counter()
    if not isinstance(design, DesignSpec):
        raise ConfigError(f"expected a DesignSpec, got {type(design)!r}")
    reps = int(reps)
    if reps < 100:
        raise ConfigError(f"need at least 100 replications, got {reps}")
    if isinstance(distributions, ErrorDistribution):
        distributions = [distributions]
    dists = list(distributions)
    if len(dists) == 1:
        dists = dists * design.g
    if len(dists) != design.g:
        raise ConfigError(f"{len(dists)} distributions for {design.g} groups")

    n_threads = resolve_threads(threads)
    z_vals = np.empty(reps)
    rejects = np.zeros(reps, dtype=bool)
    degenerate = np.zeros(reps, dtype=bool)

    with one_blas_thread():
        entries, hits, misses = lookup(model.sigmas)
        engine = TraceTestEngine(design, alpha)
        plan = _plan(design, model, dists, entries)
        q = true_q(model.theta, design)
        sigma2, sigma0_sq = sigma_full(model, design, entries=entries)
        predicted = asymptotic_power(q, sigma2, sigma0_sq, alpha)
        batch = batch_size(design)
        ready = time.perf_counter()

        def run_chunk(first: int) -> None:
            stop = min(first + batch, reps)
            stack = plan.stack(batch)[:stop - first]
            shift = None if plan.weighted is None else np.empty(stop - first)
            for k, j in enumerate(range(first, stop)):
                Y = plan.fill(seed, j, stack[k])
                if shift is not None:  # einsum reads a strided Y without a copy
                    shift[k] = np.einsum("ij,ij->", plan.weighted, Y)
            t, _, _, s0 = engine.statistics(stack)
            if shift is not None:
                t += 2.0 * shift + plan.offset
            z, _, reject, degen = _decide(t, s0, engine.alpha)
            z_vals[first:stop], rejects[first:stop], degenerate[first:stop] = z, reject, degen

        chunks = range(0, reps, batch)
        workers = min(n_threads, len(chunks), usable_cpus())
        if workers <= 1:
            for first in chunks:
                run_chunk(first)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_chunk, chunks))

    rep_s = time.perf_counter() - ready
    _log.info("monte_carlo: set-up %.4f s, covariance cache %d hits %d misses; "
              "%d replications in %.4f s, %.1f reps/s, threads=%d requested, %d used, B=%d, "
              "route=%s", ready - start, hits, misses, reps, rep_s, reps / rep_s, n_threads,
              workers, batch, plan.route)
    rate = float(np.mean(rejects))
    return SimulationSummary(
        replications=reps,
        rejection_rate=rate,
        mc_standard_error=sqrt(rate * (1.0 - rate) / reps),
        z_mean=float(np.mean(z_vals)),
        z_variance=float(np.var(z_vals)),
        ks_distance=float(kstest(z_vals, "norm", method="asymp").statistic),
        predicted_power=predicted,
        degenerate_count=int(np.sum(degenerate)),
        seed=int(seed),
    )


def canonical_direction(design: DesignSpec) -> np.ndarray:
    """A unit-scale mean direction guaranteed to violate the null: the outer
    product of the first rows of L and R."""
    u = design.L[0]
    R = design.r_form
    v = R[0] if isinstance(R, np.ndarray) else R.dense(1)[0]
    return np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))


def calibrate_signal_ray(design: DesignSpec, direction, sigmas,
                         snr: float) -> np.ndarray:
    """Scale a mean direction so q / sqrt(sigma^2) equals snr exactly.

    Both the signal and the mean-term variance scale quadratically along the
    ray, so the calibration reduces to one quadratic equation.
    """
    snr = float(snr)
    if snr < 0:
        raise ConfigError(f"signal-to-noise target must be non-negative, got {snr}")
    direction = np.asarray(direction, dtype=float)
    if snr == 0.0:
        return np.zeros_like(direction)
    q0 = true_q(direction, design)
    if not q0 > 0.0:
        raise ConfigError("signal direction is annihilated by (L, R); "
                          "it cannot generate power")
    with np.errstate(over="ignore", invalid="ignore"):
        sigma2_0, sigma0_sq = sigma_full(MeanModel(direction, tuple(sigmas)), design)
    if not (np.isfinite(sigma2_0) and np.isfinite(sigma0_sq)):
        raise ConfigError("the signal ray cannot be calibrated: the variance of T "
                          "under these covariances overflows")
    v0 = max(sigma2_0 - sigma0_sq, 0.0)
    try:
        c2 = (snr ** 2 * v0 + sqrt(snr ** 4 * v0 ** 2
                                   + 4.0 * q0 ** 2 * snr ** 2 * sigma0_sq)) / (2.0 * q0 ** 2)
    except OverflowError:
        c2 = float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        theta = sqrt(c2) * direction
    if not np.all(np.isfinite(theta)):
        raise ConfigError(f"theta.snr {snr:g} is too large: the calibrated mean overflows")
    return theta
