#!/usr/bin/env python3
"""Benchmark of the gmanova package.

    python3 bench/run.py --workload cli-test-n1000 --seed 1 --seconds 25 --trace 0

Each workload is one design and one data-generating model, made by this
script from --seed.  A run measures two paths on it for --seconds seconds,
interleaved so that both see the same machine state:

* the analyst path, ``gmanova.cli.main(["test", ...])`` on a CSV holding one
  dataset drawn from the model, rows shuffled, with --diagnostics --out;
* the methodologist path, ``monte_carlo`` at threads=1 and then threads=2
  with the same seed.

The workload's sizes decide which layer dominates; BENCHMARK.json says which.
With --trace 0 the last line of stdout is the end-to-end metrics.  With
--trace 1 it is per-layer metrics from spans recorded around every call into
the package (bench/spans.py).  Every output is checked against an
independent reference; a failed check makes the result incorrect and the exit
code 1.  The package is imported from ``src/`` beside this directory, and
temporary files go under ``.bench_work/`` at the repository root and are
removed at exit.  OPENBLAS_NUM_THREADS and GMANOVA_THREADS are recorded as
found and never set.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.stats import binom

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALPHA = 0.05
SETUP_REPEATS = 3      # setup_s is the median of this many set-ups
MIN_TEST_CALLS = 3     # per untraced run, whatever --seconds allows
MIN_MC_PAIRS = 3       # >= 300 pooled reps: a null rate of 0 has P = 0.95^300 = 2e-7
TEST_SHARE = 1 / 4      # of the timed loop; Monte Carlo pairs get the rest
REL_TOL = 1e-8         # report versus oracle and engine
# A Monte Carlo rejection count fails when it is less likely than MC_TAIL in
# one exact binomial tail, under every rate from predicted_power up to
# APPROX_TOL above it.  Each call is checked, and so is the pooled count of
# the run's distinct-seed threads=1 calls; ten runs make hundreds of checks,
# hence 1e-6.  predicted_power is an asymptotic limit, alpha under the null,
# and at these sizes the test rejects more often than it says: 10000 reps
# reject at 0.058 on mc-wide-p and 4000 at 0.059 on cli-test-n1000 (alpha
# 0.05); 4000 reps reject at 0.908 and 0.917 on mc-growth-n1200 (predicted
# 0.898).  So the allowance is one-sided.
MC_TAIL = 1e-6
APPROX_TOL = 0.02
PEAK_INDEX = 1 << 20    # Monte Carlo seed index of the tracemalloc pass
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gmanova.cli; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Workload:
    """One design, one data model, and the Monte Carlo size per call.

    home names the operation the workload is about: "cli" takes setup_s as
    the import time of gmanova.cli and peak_alloc_mb from one CLI call; "mc"
    takes setup_s as engine build plus calibration and sigma_full, and
    peak_alloc_mb from one monte_carlo call.
    """

    name: str
    scenario: str                  # gmanova test --scenario
    group_sizes: tuple[int, ...]
    p: int
    covariances: tuple[dict, ...]  # CovarianceSpec fields, cycled over groups
    distribution: dict             # ErrorDistribution fields
    mc_reps: int
    home: str
    snr: float = 0.0               # signal_ray along canonical_direction
    degree: int | None = None


WORKLOADS = {w.name: w for w in (
    Workload("cli-test-n1000", "one-way", (150, 250, 300, 300), 300,
             ({"kind": "identity"}, {"kind": "ar1", "rho": 0.5}),
             {"kind": "gaussian"}, mc_reps=100, home="cli"),
    Workload("mc-wide-p", "one-way", (40, 60), 600,
             ({"kind": "identity"}, {"kind": "ar1", "rho": 0.5, "scale": 3.0}),
             {"kind": "elliptical_t", "df": 8.0}, mc_reps=100, home="mc"),
    Workload("mc-growth-n1200", "growth-curve", (300, 300, 300, 300), 60,
             ({"kind": "identity"}, {"kind": "diagonal_ramp", "lo": 0.5, "hi": 2.0}),
             {"kind": "standardized_gamma", "shape": 1.0}, mc_reps=500, home="mc",
             snr=2.0, degree=2),
)}

END_TO_END = ("setup_s", "test_s", "mc_reps_per_s_t1", "mc_reps_per_s_t2",
              "mc_scaling_t2", "peak_alloc_mb")
UNITS = {"setup_s": "s", "test_s": "s", "mc_reps_per_s_t1": "reps/s",
         "mc_reps_per_s_t2": "reps/s", "mc_scaling_t2": "ratio",
         "peak_alloc_mb": "MB"}

# Per-call layer metrics: metric -> (span, "dur" or "self").  "_ms" metrics
# are in milliseconds, the rest in seconds.
PER_CALL = {
    "design.build_projections_s": ("design.build_projections", "dur"),
    "design.projector_s": ("design.projector", "dur"),
    "design.hypothesis_projector_s": ("design.hypothesis_projector", "dur"),
    "design.row_compressor_s": ("design.row_compressor", "dur"),
    "design.build_omega_s": ("design.build_omega", "dur"),
    "design.balance_self_s": ("design.build_projections", "self"),
    "io.load_dataset_s": ("io.load_dataset", "dur"),
    "io.write_report_s": ("io.write_report", "dur"),
    "scenarios.build_s": ("scenarios.build", "dur"),
    "estimators.estimate_variance_s": ("estimators.estimate_variance", "dur"),
    "estimators.group_residual_scatter_s": ("estimators.group_residual_scatter", "dur"),
    "estimators.group_projector_s": ("estimators.group_projector", "dur"),
    "estimators.tau_coefficients_s": ("estimators.tau_coefficients", "dur"),
    "trace_test.run_test_self_s": ("trace_test.run_test", "self"),
    "trace_test.statistic_t_s": ("trace_test.statistic_t", "dur"),
    "trace_test.assumption_diagnostics_s": ("trace_test.assumption_diagnostics", "dur"),
    "trace_test.engine_init_s": ("trace_test.engine_init", "dur"),
    "trace_test.sigma_full_s": ("trace_test.sigma_full", "dur"),
    "trace_test.statistics_ms": ("trace_test.statistics", "dur"),
    "simulate.calibrate_signal_ray_s": ("simulate.calibrate_signal_ray", "dur"),
    "simulate.sample_ms": ("simulate.sample", "dur"),
    "simulate.monte_carlo_self_s": ("simulate.monte_carlo", "self"),
    "cli.main_self_s": ("cli.main", "self"),
}
LAYERS = ("io", "scenarios", "design", "estimators", "trace_test", "simulate", "cli")


class MissingPackage(RuntimeError):
    pass


def load_package():
    """Import gmanova from src/ beside this directory, and nowhere else."""
    if not (SRC / "gmanova" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {SRC / 'gmanova'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gmanova
    import gmanova.cli
    import gmanova.oracle
    if Path(gmanova.__file__).resolve().parent != SRC / "gmanova":
        raise MissingPackage(f"gmanova imported from {gmanova.__file__}, not {SRC}")
    return gmanova


# ---------------------------------------------------------------- statistics

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))]


def timing_summary(values) -> dict:
    """Median, count, and the highest standard percentile with at least ten
    samples beyond it (none below twenty samples)."""
    out = {"median": statistics.median(values), "count": len(values)}
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            out[f"p{q:g}"] = percentile(values, q)
            break
    return out


def rel_close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * scale


def rate_tail(rejections: int, reps: int, pred: float) -> float:
    """The smaller one-sided binomial tail of `rejections` in `reps`: the
    lower one under rate `pred`, the upper one under `pred` + APPROX_TOL."""
    hi = min(pred + APPROX_TOL, 1.0)
    return float(min(binom.cdf(rejections, reps, pred), binom.sf(rejections - 1, reps, hi)))


# ---------------------------------------------------------------- inputs

def fingerprint(design) -> str:
    """SHA-256 of A, B, L, R (shape and float64 bytes) and the group sizes."""
    h = hashlib.sha256()
    for M in (design.A, design.B, design.L, design.R):
        h.update(repr(M.shape).encode())
        h.update(np.ascontiguousarray(M, dtype=np.float64).tobytes())
    h.update(repr(tuple(design.group_sizes)).encode())
    return h.hexdigest()


def mc_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 1, index]).generate_state(1)[0])


class Run:
    """Inputs, references and operations of one workload run."""

    def __init__(self, gm, w: Workload, seed: int, workdir: Path):
        self.gm, self.w, self.seed = gm, w, seed
        self.design = self.scenario(w.group_sizes).design
        g = self.design.g
        specs = [gm.CovarianceSpec(**w.covariances[i % len(w.covariances)]) for i in range(g)]
        self.sigmas = tuple(spec.matrix(w.p) for spec in specs)
        self.direction = gm.canonical_direction(self.design)
        theta = gm.calibrate_signal_ray(self.design, self.direction, self.sigmas, w.snr)
        self.model = gm.MeanModel(theta, self.sigmas)
        self.dists = gm.ErrorDistribution(**w.distribution)

        # One dataset from the model, rows shuffled so load_dataset regroups.
        rng = np.random.default_rng([seed, 0])
        mean = self.design.A @ theta @ self.design.B.T
        X = np.vstack([self.dists.sample(rng, n, w.p) @ specs[i].sqrt(w.p)
                       for i, n in enumerate(self.design.group_sizes)]) + mean
        labels = np.repeat([f"g{i}" for i in range(g)], self.design.group_sizes)
        order = rng.permutation(self.design.N)
        X, labels = X[order], labels[order]
        self.csv = workdir / "data.csv"
        self.report = workdir / "report.json"
        self.csv.write_text("".join(
            f"{lab}," + ",".join(map(repr, row)) + "\n"
            for lab, row in zip(labels.tolist(), X.tolist())), encoding="utf-8")

        # The order load_dataset produces: groups by first appearance.
        _, first = np.unique(labels, return_index=True)
        seen = labels[np.sort(first)]
        self.X_grouped = np.vstack([X[labels == lab] for lab in seen])
        self.cli_design = self.scenario([int(np.sum(labels == lab)) for lab in seen]).design
        self.oracle_t = None
        self.reference = None
        self.failures: list[str] = []
        self.attempted = 0

    def scenario(self, sizes):
        if self.w.scenario == "one-way":
            return self.gm.one_way_manova(sizes, self.w.p)
        return self.gm.growth_curve(sizes, self.w.p, self.w.degree)

    def prepare_references(self) -> None:
        """Dense oracle T and the engine's decision for the CLI dataset,
        computed once, outside any timed region."""
        self.oracle_t = self.gm.oracle.t_by_decomposition(self.X_grouped, self.cli_design)
        self.engine = self.gm.TraceTestEngine(self.cli_design, ALPHA)
        self.reference = self.engine.test_matrix(self.X_grouped)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    # -------------------------------------------------------- operations

    def cli_argv(self) -> list[str]:
        argv = ["test", "--data", str(self.csv), "--scenario", self.w.scenario,
                "--diagnostics", "--out", str(self.report)]
        if self.w.degree is not None:
            argv += ["--degree", str(self.w.degree)]
        return argv

    def cli_call(self) -> float:
        """One in-process `gmanova test`; returns its wall time."""
        self.attempted += 1
        self.report.unlink(missing_ok=True)
        argv = self.cli_argv()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.gm.cli.main(argv)
            wall = time.perf_counter() - t0
            report = json.loads(self.report.read_text(encoding="utf-8"))
        except Exception as exc:  # an operation that raises is a failure
            self.fail(f"gmanova test raised {exc!r}")
            return float("nan")
        problems = self.check_report(code, report)
        if problems:
            self.fail("gmanova test: " + "; ".join(problems))
        return wall

    def check_report(self, code: int, report: dict) -> list[str]:
        ref = self.reference
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        # T is centred at zero under the null; compare on its own scale.
        scale = max(abs(self.oracle_t), math.sqrt(max(ref.sigma0_sq_hat, 0.0)))
        if not rel_close(report["t_stat"], self.oracle_t, scale):
            problems.append(f"t_stat {report['t_stat']!r} vs oracle {self.oracle_t!r}")
        for key in ("z", "p_value"):
            want = getattr(ref, key)
            if not rel_close(report[key], want, max(abs(want), 1e-300)):
                problems.append(f"{key} {report[key]!r} vs engine {want!r}")
        z_crit = statistics.NormalDist().inv_cdf(1.0 - ALPHA)
        if report["reject"] != ref.reject and not rel_close(ref.z, z_crit, abs(z_crit)):
            problems.append(f"reject {report['reject']} vs engine {ref.reject}")
        if report["diagnostics"] is None:
            problems.append("no diagnostics")
        return problems

    def mc_call(self, index: int, threads: int, reps: int | None = None):
        """One monte_carlo call; returns (summary, wall)."""
        self.attempted += 1
        reps = reps or self.w.mc_reps
        try:
            t0 = time.perf_counter()
            summary = self.gm.monte_carlo(self.design, self.model, self.dists,
                                          alpha=ALPHA, reps=reps,
                                          seed=mc_seed(self.seed, index), threads=threads)
            wall = time.perf_counter() - t0
        except Exception as exc:
            self.fail(f"monte_carlo threads={threads} raised {exc!r}")
            return None, float("nan")
        rejections = round(summary.rejection_rate * reps)
        tail = rate_tail(rejections, reps, summary.predicted_power)
        if summary.replications != reps or tail < MC_TAIL:
            self.fail(f"monte_carlo threads={threads}: {rejections} rejections, "
                      f"{summary.replications} of {reps} reps run, predicted "
                      f"{summary.predicted_power:.4f}, tail {tail:.2g}")
        return summary, wall

    def check_pooled(self, summaries) -> dict:
        """The rejection count of distinct-seed calls, pooled; one operation."""
        self.attempted += 1
        reps = sum(s.replications for s in summaries)
        rejections = sum(round(s.rejection_rate * s.replications) for s in summaries)
        pred = summaries[0].predicted_power if summaries else math.nan
        tail = rate_tail(rejections, reps, pred) if reps else math.nan
        if not tail >= MC_TAIL:
            self.fail(f"monte_carlo pooled threads=1: {rejections} rejections in {reps} "
                      f"reps, predicted {pred:.4f}, tail {tail:.2g}")
        return {"rejections": rejections, "reps": reps, "predicted_power": pred, "tail": tail}

    def mc_pair(self, index: int):
        """threads=1 and threads=2 on one seed, in alternating order; the
        summaries must be bitwise equal."""
        out = {}
        for threads in ((1, 2) if index % 2 == 0 else (2, 1)):
            out[threads] = self.mc_call(index, threads)
        (s1, w1), (s2, w2) = out[1], out[2]
        if s1 is not None and s2 is not None and _bits(s1) != _bits(s2):
            self.fail(f"monte_carlo pair {index}: threads=2 summary {s2} "
                      f"differs from threads=1 summary {s1}")
        return s1, w1, s2, w2

    def setup_call(self) -> float:
        """The workload's one-off set-up cost; returns its wall time."""
        self.attempted += 1
        if self.w.home == "cli":
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                self.fail(f"import gmanova.cli failed: {proc.stderr.strip()}")
                return float("nan")
            return float(proc.stdout.strip().splitlines()[-1])
        return self.engine_setup()

    def engine_setup(self) -> float:
        gm = self.gm
        try:
            t0 = time.perf_counter()
            engine = gm.TraceTestEngine(self.design, ALPHA)
            theta = gm.calibrate_signal_ray(self.design, self.direction, self.sigmas, self.w.snr)
            gm.sigma_full(gm.MeanModel(theta, self.sigmas), self.design, engine.projections)
            return time.perf_counter() - t0
        except Exception as exc:
            self.fail(f"engine set-up raised {exc!r}")
            return float("nan")

    def peak_alloc_mb(self) -> float:
        """Peak tracemalloc allocation of one home operation, untimed.  The
        Monte Carlo pass runs the package minimum of 100 reps: the peak is
        set by the engine build, and per-rep arrays are freed each rep."""
        tracemalloc.start()
        try:
            if self.w.home == "cli":
                self.cli_call()
            else:
                self.mc_call(PEAK_INDEX, 1, reps=100)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    # -------------------------------------------------------- timed loop

    def timed_loop(self, seconds: float, min_tests: int, min_pairs: int) -> dict:
        """Interleave CLI calls and Monte Carlo pairs until `seconds` have
        passed and the minimum counts are met, giving the CLI calls about
        TEST_SHARE of the time."""
        tests, t1, t2, summaries, pooled = [], [], [], [], []
        spent = {"test": 0.0, "mc": 0.0}
        start = time.perf_counter()
        while True:
            need_test, need_pair = len(tests) < min_tests, len(t1) < min_pairs
            if time.perf_counter() - start >= seconds and not (need_test or need_pair):
                break
            if need_test != need_pair:
                do_test = need_test
            else:
                do_test = spent["test"] * (1 - TEST_SHARE) <= spent["mc"] * TEST_SHARE
            t0 = time.perf_counter()
            if do_test:
                tests.append(self.cli_call())
                spent["test"] += time.perf_counter() - t0
            else:
                s1, w1, s2, w2 = self.mc_pair(len(t1))
                t1.append(self.w.mc_reps / w1)
                t2.append(self.w.mc_reps / w2)
                summaries += [s for s in (s1, s2) if s is not None]
                pooled += [s1] if s1 is not None else []
                spent["mc"] += time.perf_counter() - t0
        return {"tests": tests, "t1": t1, "t2": t2, "summaries": summaries,
                "pooled": self.check_pooled(pooled)}


def _bits(summary) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in (getattr(summary, f.name) for f in fields(summary)))


def _child_env() -> dict:
    """The caller's environment with src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _finite(values):
    return [v for v in values if math.isfinite(v)]


# ---------------------------------------------------------------- provenance

def provenance(gm, run: Run) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "gmanova": gm.__version__,
        "git_commit": commit,
        "workload": run.w.name,
        "seed": run.seed,
        "design_sha256": fingerprint(run.design),
        "cli_design_sha256": fingerprint(run.cli_design),
        "cli_group_sizes": list(run.cli_design.group_sizes),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GMANOVA_THREADS": os.environ.get("GMANOVA_THREADS"),
    }


def import_breakdown() -> dict:
    """Cumulative import times from `python -X importtime -c 'import
    gmanova.cli'`: the whole package and its scipy.stats share."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gmanova.cli"],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            us = int(parts[1])
        except ValueError:
            continue  # the header line
        cumulative.setdefault(parts[2].strip(), us)
    if proc.returncode != 0 or "gmanova" not in cumulative or "scipy.stats" not in cumulative:
        raise RuntimeError(f"import breakdown failed: {proc.stderr[-500:]}")
    return {"import.gmanova_s": (cumulative["gmanova"] + cumulative.get("gmanova.cli", 0)) / 1e6,
            "import.scipy_stats_s": cumulative["scipy.stats"] / 1e6}


# ---------------------------------------------------------------- per layer

def layer_metrics(tracer, run: Run, loop: dict, baseline: dict, csv_bytes: int) -> dict:
    from spans import SPAN_NAMES

    spans = tracer.spans
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
    missing = [name for name in SPAN_NAMES if not by_name[name]]
    if missing:
        run.fail(f"spans never fired: {missing}")
    unwrapped = tracer.unwrapped_bindings()
    if unwrapped:
        run.fail(f"bindings left unwrapped: {unwrapped}")

    out = {}
    for metric, (name, kind) in PER_CALL.items():
        scale = 1e3 if metric.endswith("_ms") else 1.0
        values = [scale * (spans[i].duration if kind == "dur" else tracer.self_time(i))
                  for i in by_name[name]] or [0.0]
        out[metric] = statistics.median(values)
        out[f"{metric}.p99"] = percentile(values, 99.0)
        out[f"{metric}.count"] = len(by_name[name])

    for layer in LAYERS:
        members = [i for i, s in enumerate(spans) if s.name.split(".")[0] == layer]
        out[f"{layer}.calls"] = len(members)
        out[f"{layer}.busy_s"] = sum(spans[i].duration for i in members
                                     if not tracer.layer_ancestor(i))
        out[f"{layer}.self_s"] = sum(tracer.self_time(i) for i in members)
        out[f"{layer}.failures"] = sum(spans[i].failed for i in members)

    proj = run.engine.projections
    n = run.cli_design.N
    out["design.nxn_bytes"] = sum(getattr(proj, f.name).nbytes for f in fields(proj)
                                  if getattr(getattr(proj, f.name), "shape", None) == (n, n))
    out["io.load_dataset_mb_per_s"] = csv_bytes / 1e6 / max(out["io.load_dataset_s"], 1e-12)
    out["trace_test.omega_bytes_per_rep"] = run.engine.omega.nbytes
    busy = []
    for i in by_name["simulate.monte_carlo"]:
        owner = spans[i].thread
        workers = [spans[c] for c in spans[i].children if spans[c].thread != owner]
        if workers:
            n_threads = len({s.thread for s in workers})
            busy.append(sum(s.duration for s in workers) / (n_threads * spans[i].duration))
    out["simulate.worker_busy_frac"] = statistics.median(busy) if busy else 0.0
    summaries = loop["summaries"]
    out["simulate.degenerate_frac"] = (sum(s.degenerate_count for s in summaries)
                                       / max(1, sum(s.replications for s in summaries)))
    try:
        out.update(import_breakdown())
    except (RuntimeError, subprocess.SubprocessError) as exc:
        run.fail(str(exc))
        out.update({"import.gmanova_s": math.nan, "import.scipy_stats_s": math.nan})
    out["trace.overhead_test_s"] = statistics.median(_finite(loop["tests"]) or [math.nan]) \
        - baseline["test"]
    out["trace.overhead_mc_t1_s"] = (run.w.mc_reps / loop["t1"][0] if loop["t1"] else math.nan) \
        - baseline["mc_t1"]
    return out


# ---------------------------------------------------------------- running

def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result, run record)."""
    gm = load_package()
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_parent) as tmp:
        run = Run(gm, w, seed, Path(tmp))
        csv_bytes = run.csv.stat().st_size
        run.prepare_references()
        record = {"provenance": provenance(gm, run), "csv_bytes": csv_bytes,
                  "oracle_t": run.oracle_t}
        if trace:
            metrics, details = _traced(run, seconds, csv_bytes)
        else:
            metrics, details = _untraced(run, seconds)
        record.update(details)

    failed = len(run.failures)
    record["failures"] = run.failures
    record["failed_frac"] = failed / max(1, run.attempted)
    result = {"correct": failed == 0, "attempted": max(1, run.attempted),
              "failed": failed, "metrics": metrics}
    return result, record


def _untraced(run: Run, seconds: float):
    setups = _finite([run.setup_call() for _ in range(SETUP_REPEATS)])
    loop = run.timed_loop(seconds, MIN_TEST_CALLS, MIN_MC_PAIRS)
    peak = run.peak_alloc_mb()
    tests, t1, t2 = _finite(loop["tests"]), _finite(loop["t1"]), _finite(loop["t2"])
    values = {
        "setup_s": statistics.median(setups) if setups else math.nan,
        "test_s": statistics.median(tests) if tests else math.nan,
        "mc_reps_per_s_t1": statistics.median(t1) if t1 else math.nan,
        "mc_reps_per_s_t2": statistics.median(t2) if t2 else math.nan,
        "peak_alloc_mb": peak,
    }
    values["mc_scaling_t2"] = values["mc_reps_per_s_t2"] / values["mc_reps_per_s_t1"]
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}
    details = {
        "setup_s": {"values": setups, **timing_summary(setups)} if setups else None,
        "test_s": {"values": tests, **timing_summary(tests)} if tests else None,
        "mc_reps_per_s_t1": {"values": t1, "reps_per_call": run.w.mc_reps},
        "mc_reps_per_s_t2": {"values": t2, "reps_per_call": run.w.mc_reps},
        "mc_scaling_t2": {"t2": values["mc_reps_per_s_t2"], "t1": values["mc_reps_per_s_t1"]},
        "rejection_rates": [s.rejection_rate for s in loop["summaries"]],
        "pooled_threads1": loop["pooled"],
    }
    return metrics, details


def _traced(run: Run, seconds: float, csv_bytes: int):
    from spans import Tracer

    # Untraced figures on the same inputs: the median of a few CLI calls,
    # and the threads=1 call that pair 0 of the traced loop repeats.
    tests = _finite([run.cli_call() for _ in range(MIN_TEST_CALLS)])
    baseline = {"test": statistics.median(tests) if tests else math.nan,
                "mc_t1": run.mc_call(0, 1)[1]}
    with Tracer() as tracer:
        run.engine_setup()
        loop = run.timed_loop(seconds, 1, MIN_MC_PAIRS)
        values = layer_metrics(tracer, run, loop, baseline, csv_bytes)
    metrics = {name: {"value": float(v), "unit": layer_unit(name)}
               for name, v in values.items()}
    details = {
        "spans": len(tracer.spans),
        "untraced_baseline_s": baseline,
        "accounting": {"test": self_by_layer(tracer, "cli.main"),
                       "mc_t1": self_by_layer(tracer, "simulate.monte_carlo")},
        "import_scipy_stats_share": values["import.scipy_stats_s"] / values["import.gmanova_s"],
    }
    return metrics, details


def self_by_layer(tracer, root_name: str) -> dict:
    """Mean self time per layer over the subtrees of the `root_name` spans
    that ran on one thread.  The layers sum to the mean traced duration,
    which exceeds the untraced baseline by the tracing overhead."""
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.name == root_name
             and all(spans[c].thread == s.thread for c in s.children)]
    by_layer = defaultdict(float)
    for root in roots:
        stack = [root]
        while stack:
            i = stack.pop()
            by_layer[spans[i].name.split(".")[0]] += tracer.self_time(i) / len(roots)
            stack.extend(spans[i].children)
    return {"calls": len(roots),
            "traced_s": sum(spans[r].duration for r in roots) / max(1, len(roots)),
            "self_s_by_layer": dict(by_layer)}


def layer_unit(name: str) -> str:
    if name.endswith((".count", ".calls", ".failures")):
        return "count"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_frac"):
        return "ratio"
    stem = name[:-len(".p99")] if name.endswith(".p99") else name
    return "ms" if stem.endswith("_ms") else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run_workload(WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  failed_frac = {record['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in record["failures"]:
        print(f"FAILED: {problem}")
    print("run-record " + json.dumps(record, default=float))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
