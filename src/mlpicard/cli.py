"""Command-line interface: run experiments, sweep accuracy targets and
validate problems."""

from __future__ import annotations

import argparse
import math
import os
import sys

from .harness import (
    ConfigError,
    find_depth_for_epsilon,
    parse_config,
    run_experiment,
    write_sweep_csv,
)
from .oracle import OracleError
from .problems import CATALOGUE, ProblemError, instantiate, validate


def _load_config(path: str):
    """The parsed config, or None after one error line on stderr."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except ConfigError as exc:
        print(exc, file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        return 2
    if args.workers is not None:
        cfg.workers = args.workers
    try:
        rows, reference, paths = run_experiment(cfg)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"no reference: {exc}", file=sys.stderr)
        return 2
    print(f"reference ({reference.method}): {reference.value:.10g} "
          f"+- {reference.ci_halfwidth:.3g}")
    print(f"{'n':>3} {'M':>3} {'N':>6} {'mean':>12} {'se':>10} {'rmse':>10} "
          f"{'err_bound':>12} {'cost':>12} {'cost_bound':>12} {'wall_s':>8}")
    ok = len(rows) == len(cfg.depths)
    for r in rows:
        print(f"{r.n:>3} {r.M:>3} {r.N:>6} {r.value_mean:>12.6g} {r.value_se:>10.3g} "
              f"{r.rmse_vs_reference:>10.4g} {r.theoretical_error_bound:>12.4g} "
              f"{r.tallied_cost:>12.6g} {r.cost_recursion_bound:>12.6g} "
              f"{r.wall_time_seconds:>8.2f}")
        if r.tallied_cost > r.cost_recursion_bound:
            ok = False
            print(f"INVARIANT VIOLATION: tallied cost exceeds its bound at ({r.n},{r.M})")
        if r.rmse_vs_reference > r.theoretical_error_bound:
            ok = False
            print(f"INVARIANT VIOLATION: RMSE exceeds the error bound at ({r.n},{r.M})")
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        return 2
    epsilons = []
    for item in filter(str.strip, args.eps.split(",")):
        try:
            eps = float(item)
        except ValueError:
            eps = math.nan
        if not 0.0 < eps <= 1.0:
            print(f"invalid --eps: {item.strip()!r} is not a number in (0, 1]", file=sys.stderr)
            return 2
        epsilons.append(eps)
    if not epsilons:
        print(f"invalid --eps: {args.eps!r} names no target", file=sys.stderr)
        return 2
    try:
        sweep_rows, reference = find_depth_for_epsilon(cfg, epsilons)
    except OracleError as exc:
        print(f"no reference: {exc}", file=sys.stderr)
        return 2
    print(f"reference ({reference.method}): {reference.value:.10g} "
          f"+- {reference.ci_halfwidth:.3g}")
    print(f"{'epsilon':>9} {'status':>12} {'n*':>4} {'rmse':>10} {'cost_sum':>12} "
          f"{'cost*eps^5':>12} {'total_bound':>12}")
    ok = True
    for row in sweep_rows:
        ok = ok and row.status == "ok"
        print(f"{row.epsilon:>9.4g} {row.status:>12} {row.n_star:>4} {row.rmse:>10.4g} "
              f"{row.cost_sum:>12.6g} {row.cost_times_eps_power:>12.6g} "
              f"{row.total_cost_bound:>12.6g}")
    out_path = os.path.join(cfg.output_dir, "sweep.csv")
    write_sweep_csv(sweep_rows, out_path)
    print(f"wrote sweep: {out_path}")
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    if args.samples < 1:
        print(f"invalid --samples: must be >= 1, got {args.samples}", file=sys.stderr)
        return 2
    overrides = {}
    for item in args.override or []:
        key, _, value = item.partition("=")
        overrides[key] = value
    try:
        problem = instantiate(args.name, **overrides)
    except ProblemError as exc:
        print(f"invalid override: {exc}", file=sys.stderr)
        return 2
    report = validate(problem, args.samples, args.seed)
    print(f"problem {problem.name} (d={problem.d}, T={problem.T}): "
          f"{len(report.violations)} violation(s) over {report.samples} samples "
          f"on [-{report.box_halfwidth}, {report.box_halfwidth}]^d")
    for v in report.violations[:20]:
        print(f"  {v.inequality}: lhs={v.lhs:.6g} > rhs={v.rhs:.6g} at {v.witness}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mlpicard",
        description="Multilevel Picard Monte Carlo solver and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=None,
                       help="parallel replication workers (overrides config)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep-epsilon", help="depth search per accuracy target")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--eps", required=True, help="comma-separated targets in (0, 1]")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate-problem", help="spot-check problem hypotheses")
    p_val.add_argument("name", choices=list(CATALOGUE))
    p_val.add_argument("--samples", type=int, default=10000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
