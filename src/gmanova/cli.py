"""Command-line interface.

Verbs:
  test      run the standardized trace test on a CSV dataset
  simulate  run a Monte Carlo size/power experiment from a JSON config
  diagnose  cross-check the fast implementation against dense oracles
  scenario  materialize a named design as CSV matrices plus a manifest

Exit codes: 0 success; 2 input/config error; 3 no balancing solution for
the design; 4 degenerate variance estimate (the test ran and is flagged).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .design import DesignSpec, row_classes
from .errors import ConfigError, DesignError, GroupError, NoBalancingSolution
from .io import (
    load_config,
    load_dataset,
    load_design,
    write_design,
    write_report,
    write_summary,
)
from .scenarios import (
    EFFECTS,
    SCENARIO_NAMES,
    Scenario,
    growth_curve,
    one_way_manova,
    profile_parallelism,
    two_way_manova,
)
from .simulate import (
    CovarianceSpec,
    ErrorDistribution,
    calibrate_signal_ray,
    canonical_direction,
    monte_carlo,
    replication_sampler,
)
from .trace_test import MeanModel, TraceTestEngine, mean_rows, run_test, statistic_t


def _parse_sizes(text: str, what: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated integers, got {text!r}") from exc
    if not sizes:
        raise ConfigError(f"{what} is empty")
    return sizes


def _build_scenario(name: str, group_sizes, p: int, *, degree=None,
                    levels=None, effect=None) -> Scenario:
    if name == "one-way":
        return one_way_manova(group_sizes, p)
    if name == "profile-parallelism":
        return profile_parallelism(group_sizes, p)
    if name == "growth-curve":
        if degree is None:
            raise ConfigError("growth-curve scenario needs a polynomial degree")
        return growth_curve(group_sizes, p, degree)
    if name == "two-way":
        if levels is None or effect is None:
            raise ConfigError("two-way scenario needs factor levels and an effect")
        return two_way_manova(levels[0], levels[1], group_sizes, p, effect)
    raise ConfigError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


def _scenario_from_config(spec: dict) -> Scenario:
    name = spec["name"]
    if "p" not in spec:
        raise ConfigError("scenario needs 'p'")
    if "group_sizes" not in spec:
        raise ConfigError(f"scenario {name!r} needs 'group_sizes'")
    return _build_scenario(name, spec["group_sizes"], spec["p"], degree=spec.get("degree"),
                           levels=spec.get("levels"), effect=spec.get("effect"))


def _broadcast(specs, g: int, what: str) -> list:
    items = [specs] if isinstance(specs, dict) else list(specs)
    if len(items) == 1:
        items = items * g
    if len(items) != g:
        raise ConfigError(f"{len(items)} {what} for {g} groups")
    return items


def _theta_matrix(M, what: str, design: DesignSpec) -> np.ndarray:
    """M as the k x q finite float matrix of theta; ConfigError naming what otherwise."""
    try:
        M = np.asarray(M, dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{what} is not a rectangular matrix: {exc}") from exc
    if M.shape != (design.k, design.q):
        raise ConfigError(f"{what} has shape {M.shape}, design needs ({design.k}, {design.q})")
    if not np.isfinite(M).all():
        raise ConfigError(f"theta has non-finite entries in {what}")
    return M


def _theta_from_config(spec: dict, design: DesignSpec, sigmas, base: Path) -> np.ndarray:
    kind = spec["kind"]
    if kind == "zero":
        return np.zeros((design.k, design.q))
    if kind == "matrix":
        if "values" in spec:
            return _theta_matrix(spec["values"], "theta.values", design)
        if "path" not in spec:
            raise ConfigError("theta kind 'matrix' needs 'values' or 'path'")
        try:
            theta = np.loadtxt(base / spec["path"], delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read theta from {spec['path']}: {exc}") from exc
        return _theta_matrix(theta, f"theta.path {spec['path']}", design)
    if "snr" not in spec:
        raise ConfigError("theta kind 'signal_ray' needs 'snr'")
    if isinstance(spec.get("direction", "canonical"), str):
        direction = canonical_direction(design)
    else:
        direction = _theta_matrix(spec["direction"], "theta.direction", design)
    return calibrate_signal_ray(design, direction, sigmas, spec["snr"])


def build_experiment(config: dict, base: Path):
    """Turn a validated configuration into concrete experiment objects."""
    if "design" in config:
        design = load_design(base / config["design"])
    else:
        design = _scenario_from_config(config["scenario"]).design
    g, p = design.g, design.p
    dists = [ErrorDistribution(**d)
             for d in _broadcast(config.get("distributions", {"kind": "gaussian"}),
                                 g, "distributions")]
    covs = [CovarianceSpec(**c)
            for c in _broadcast(config.get("covariances", {"kind": "identity"}),
                                g, "covariances")]
    sigmas = tuple(c.checked_matrix(p) for c in covs)  # gated before any computation
    theta = _theta_from_config(config.get("theta", {"kind": "zero"}),
                               design, sigmas, base)
    model = MeanModel(theta=theta, sigmas=sigmas)
    return design, model, dists, config.get("alpha", 0.05), config["reps"], config["seed"]


def _check_row_alignment(sample, design: DesignSpec, data) -> None:
    """Reject a dataset whose rows were regrouped by label when the design's
    A differs between rows of one group: which row of A a data row belongs
    to would then depend on the file's row order."""
    if np.array_equal(sample.source_rows, np.arange(sample.N)):
        return
    per_group = np.bincount(row_classes(design).group, minlength=design.g)
    varying = np.flatnonzero(per_group > 1)
    if varying.size:
        i = int(varying[0])
        raise ConfigError(
            f"{data}: rows were regrouped by label, but design group {i} "
            f"(label {sample.labels[i]!r}) has {per_group[i]} distinct rows of A; "
            "list the rows of each group together, in the design's order")


def cmd_test(args) -> int:
    sample = load_dataset(args.data, header=args.header)
    if args.design is not None:
        design = load_design(args.design)
        if tuple(design.group_sizes) != tuple(sample.group_sizes):
            raise ConfigError(
                f"data has group sizes {sample.group_sizes} but the design "
                f"manifest declares {design.group_sizes}")
        _check_row_alignment(sample, design, args.data)
    else:
        scenario = _build_scenario(args.scenario, sample.group_sizes, sample.p,
                                   degree=args.degree,
                                   levels=args.levels,
                                   effect=args.effect)
        design = scenario.design
    try:
        report = run_test(sample, design, args.alpha, diagnostics=args.diagnostics)
    except GroupError as exc:  # the index alone follows the file's label order
        detail = str(exc).partition(": ")[2]
        raise ConfigError(f"{args.data}: design group {exc.group} "
                          f"(label {sample.labels[exc.group]!r}): {detail}") from exc
    invocation = {"data": str(args.data), "design": str(args.design),
                  "scenario": args.scenario, "alpha": args.alpha,
                  "diagnostics": args.diagnostics, "header": args.header}
    if args.out:
        write_report(report, args.out, config=invocation)
    flag = " [degenerate variance]" if report.degenerate else ""
    print(f"T={report.t_stat:.6g}  z={report.z:.6g}  p={report.p_value:.6g}  "
          f"reject={report.reject}{flag}")
    return 4 if report.degenerate else 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    base = Path(args.config).parent
    design, model, dists, alpha, reps, seed = build_experiment(config, base)
    summary = monte_carlo(design, model, dists, alpha=alpha, reps=reps,
                          seed=seed, threads=args.threads)
    out = args.out or config.get("out")
    if out:
        write_summary(summary, out, config=config)
    print(f"reps={summary.replications}  reject_rate={summary.rejection_rate:.4f}"
          f"  (se {summary.mc_standard_error:.4f})  ks={summary.ks_distance:.4f}"
          f"  predicted={summary.predicted_power:.4f}")
    return 0


def _check(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"{status}  {label}{suffix}")
    return ok


def cmd_diagnose(args) -> int:
    from .oracle import dense_min_norm_solve, t_by_decomposition  # only this verb reads them

    if args.draws < 1:
        raise ConfigError(f"--draws must be at least 1, got {args.draws}")
    config = load_config(args.config)
    base = Path(args.config).parent
    design, model, dists, alpha, _, seed = build_experiment(config, base)
    TraceTestEngine(design, alpha)  # the gates monte_carlo applies first
    mean_rows(model.theta, design)  # and its overflow check of the mean
    proj = design.projections
    ok = True
    ok &= _check("hat projection idempotent",
                 float(np.max(np.abs(proj.pi_a @ proj.pi_a - proj.pi_a))) <= 1e-10)
    ok &= _check("hypothesis projection rank",
                 abs(float(np.trace(proj.pi_h)) - design.ell) <= 1e-8,
                 f"trace {np.trace(proj.pi_h):.6g} vs ell={design.ell}")
    gram = proj.compressor @ proj.compressor.T
    ok &= _check("compressor gram projection",
                 float(np.max(np.abs(gram - np.eye(design.r)))) <= 1e-10)
    print(f"row classes: {proj.weights.classes.first.size} of {design.N} rows")
    C = np.eye(design.N) - proj.pi_a
    d_ref, resid = dense_min_norm_solve(C * C, proj.h_diag)
    scale = float(np.linalg.norm(proj.h_diag))
    ok &= _check("balancing residual",
                 resid <= 1e-8 * max(scale, 1e-300),
                 f"relative residual {resid / scale:.3e}")
    gap = float(np.max(np.abs(proj.d - d_ref))) / max(float(np.max(np.abs(d_ref))), 1e-300)
    ok &= _check("class balancing weights vs dense solve", gap <= 1e-10,
                 f"relative gap {gap:.3e}")
    ok &= _check("omega diagonal is zero",
                 float(np.max(np.abs(np.diag(proj.omega)))) == 0.0)

    draw = replication_sampler(design, model, dists)
    gaps = np.empty((args.draws, 2))
    for j in range(args.draws):
        X = draw(seed, j)
        dense = statistic_t(X, proj.compressor, proj.omega)
        factored = statistic_t(X, proj.compressor, proj.factors)
        slow = t_by_decomposition(X, design)
        gaps[j] = (abs(dense - slow) / max(1.0, abs(slow)),
                   abs(factored - dense) / max(1.0, abs(dense)))
    worst, worst_factored = np.max(gaps, axis=0)  # NaN when a gap is, and fails
    ok &= _check(f"statistic identity on {args.draws} draws", worst <= 1e-8,
                 f"worst relative gap {worst:.3e}")
    ok &= _check(f"factored statistic on {args.draws} draws",
                 worst_factored <= 1e-10,
                 f"worst relative gap to the dense form {worst_factored:.3e}")
    return 0 if ok else 2


def cmd_scenario(args) -> int:
    sizes = _parse_sizes(args.groups, "--groups")
    scenario = _build_scenario(args.name, sizes, args.p, degree=args.degree,
                               levels=args.levels, effect=args.effect)
    manifest = write_design(scenario.design, args.emit)
    print(f"{scenario.name}: {scenario.null_description}")
    print(f"wrote {manifest}")
    return 0


def _levels(text: str) -> tuple[int, int]:
    parts = _parse_sizes(text, "--levels")
    if len(parts) != 2:
        raise ConfigError(f"--levels needs exactly two integers, got {text!r}")
    return parts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmanova",
        description="Trace test for bilateral linear hypotheses on the mean "
                    "matrix of grouped multivariate data, valid when the "
                    "dimension rivals or exceeds the group sample sizes.")
    sub = parser.add_subparsers(dest="verb", required=True)

    t = sub.add_parser("test", help="test a CSV dataset")
    t.add_argument("--data", required=True, help="grouped CSV (label, p columns)")
    t.add_argument("--scenario", default="one-way", choices=SCENARIO_NAMES)
    t.add_argument("--design", default=None, help="design manifest JSON (overrides --scenario)")
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--degree", type=int, default=None, help="growth-curve degree")
    t.add_argument("--levels", type=_levels, default=None, help="two-way levels, e.g. 2,3")
    t.add_argument("--effect", default=None, choices=EFFECTS)
    t.add_argument("--header", action="store_true", help="data file has a header row")
    t.add_argument("--diagnostics", action="store_true")
    t.add_argument("--out", default=None, help="report JSON path")
    t.set_defaults(func=cmd_test)

    s = sub.add_parser("simulate", help="Monte Carlo experiment from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None, help="summary JSON path (overrides config)")
    s.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: GMANOVA_THREADS, 0 = auto)")
    s.set_defaults(func=cmd_simulate)

    d = sub.add_parser("diagnose", help="oracle cross-checks for a config")
    d.add_argument("--config", required=True)
    d.add_argument("--draws", type=int, default=5)
    d.set_defaults(func=cmd_diagnose)

    c = sub.add_parser("scenario", help="materialize a named design")
    c.add_argument("--name", required=True, choices=SCENARIO_NAMES)
    c.add_argument("--groups", required=True, help="comma-separated group sizes")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--degree", type=int, default=None)
    c.add_argument("--levels", type=_levels, default=None)
    c.add_argument("--effect", default=None, choices=EFFECTS)
    c.add_argument("--emit", required=True, help="output directory")
    c.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoBalancingSolution as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DesignError, GroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
