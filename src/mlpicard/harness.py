"""Configuration-driven experiment harness.

Reads a flat ``key = value`` config (documented in the README; the shipped
examples are under ``configs/``), runs repeated estimator realizations per
depth against a deterministic reference (the closed form where the problem
has one, else the d = 1 Picard quadrature of :mod:`mlpicard.oracle`), and
writes three CSV files:

* ``results.csv``: one row per (n, M) with mean/SE, RMSE against the
  reference, the a priori error bound, and the tallied cost next to its
  recursion bound;
* ``raw.csv``: one row per replication with the full cost ledger;
* ``bounds.csv``: the bound evaluations alone.

The replications use root seeds ``seed, seed + 1, ...``.  A run cuts them
once into ``min(workers, replications)`` contiguous seed blocks, and one
task evaluates every configured depth of one block, each depth as one
``mlp.estimate_many`` forest.  The calling process is one of the workers: it
forks one child per block 2, 3, ... (the platform's default start method
where ``fork`` is not offered), evaluates block 1 itself, receives each
child's ``Estimate``s over a one-way pipe, and joins each depth's estimates
in seed order into one record, which the report and raw rows read;
``workers = 1`` starts no child.  The children are joined when the ``with``
body of :func:`_depth_runs` ends, and terminated first if it raised:
:func:`run_experiment` writes the CSVs inside it, so the children's exit
overlaps the reports, and :func:`find_depth_for_epsilon` runs each depth
the same way, at ``cfg.workers``.  No child outlives the call.
Outputs are byte-identical for identical configs regardless of the worker
count: every realization is a pure function of its seed.  Wall-clock
timings (a depth's time is its slowest block's) are reported on stdout only;
they are the one quantity that would break byte-level reproducibility.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import re
import time
import traceback
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from .bounds import error_bound, inf_past_float_range, total_cost_bound
from .mlp import MlpParams, cost_recursion_bound, estimate_many
from .oracle import Reference, closed_form, picard_quadrature_1d
from .problems import PARAMETERS, Problem, instantiate

RESULTS_HEADER = [
    "n", "M", "N", "value_mean", "value_se", "rmse_vs_reference",
    "reference_value", "reference_ci_halfwidth", "reference_ci_flag",
    "theoretical_error_bound", "tallied_cost", "cost_recursion_bound",
]
RAW_HEADER = [
    "n", "M", "N", "seed", "value", "uniforms", "gaussians", "euler_steps",
    "g_evals", "f_evals", "weighted_cost",
]
BOUNDS_HEADER = ["n", "M", "N", "error_bound", "cost_recursion_bound"]
SWEEP_HEADER = [
    "epsilon", "status", "n_star", "rmse", "rmse_plus_2se", "cost_sum",
    "total_cost_bound", "cost_times_eps_power", "tripped_bound",
]

OUTPUT_DIR_ENV = "MLPICARD_OUTPUT_DIR"


class ConfigError(ValueError):
    """Carries the complete list of config violations, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n  " + "\n  ".join(self.violations))


@dataclass
class ExperimentConfig:
    problem: str
    overrides: dict = field(default_factory=dict)
    t0: float = 0.0
    x0: Optional[np.ndarray] = None  # None means the origin in dimension d
    depths: list = field(default_factory=lambda: [(1, 1), (2, 2), (3, 3)])
    euler_override: Optional[int] = None
    replications: int = 32
    seed: int = 0
    cost_weights: tuple = (1.0, 1.0, 1.0, 1.0)
    cost_ceiling: float = 1.0e12
    output_dir: str = "out"
    workers: int = 1
    max_depth: int = 8

    @property
    def dimension(self) -> int:
        return int(self.overrides.get("d", 1))

    def resolved_steps(self, M: int) -> int:
        return MlpParams(n=0, M=M, euler_steps=self.euler_override).resolved_steps

    def query_point(self) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(self.dimension)
        return self.x0

    def build_problem(self) -> Problem:
        return instantiate(self.problem, **self.overrides)


@dataclass
class ReportRow:
    n: int
    M: int
    N: int
    value_mean: float
    value_se: float
    rmse_vs_reference: float
    rmse_se: float
    reference_value: float
    reference_ci_halfwidth: float
    theoretical_error_bound: float
    tallied_cost: float
    cost_recursion_bound: float
    wall_time_seconds: float  # the slowest seed block's time for this depth

    @property
    def reference_ci_flag(self) -> str:
        # flag rows where the reference uncertainty is non-negligible
        if (self.rmse_vs_reference > 0
                and self.reference_ci_halfwidth > 0.1 * self.rmse_vs_reference):
            return "wide-reference-ci"
        return "ok"


class _BadValue(ValueError):
    """A rejected value whose args are its messages.  A ``partial`` result
    that is not None is still applied, so later checks see what parsed."""

    def __init__(self, *messages, partial=None):
        super().__init__(*messages)
        self.partial = partial


def _parse_x0(value: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in value.split(",")], dtype=float)
    except ValueError:
        raise _BadValue("x0 must be a comma-separated float list") from None


def _parse_depths(value: str) -> list:
    depths, bad = [], []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if ":" in chunk:
                n_str, m_str = chunk.split(":", 1)
                depths.append((int(n_str), int(m_str)))
            else:
                n = int(chunk)
                depths.append((n, n))
        except ValueError:
            bad.append(f"depth entry {chunk!r} is not 'n' or 'n:M'")
    if bad:
        raise _BadValue(*bad, partial=depths or None)
    return depths


def _parse_weights(value: str) -> tuple:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 4:
        raise _BadValue("cost_weights needs exactly 4 values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise _BadValue("cost_weights must be floats") from None


# Every config key: key -> (caster, target).  A target is an ExperimentConfig
# attribute, or "overrides.<name>" for a problem override.  Keys are converted
# in this order, which fixes the order of the reported errors.
_KEYS = {
    "problem": (str, "problem"),
    **{key: (int if key == "d" else float, f"overrides.{key}") for key in PARAMETERS},
    "t0": (float, "t0"),
    "x0": (_parse_x0, "x0"),
    "depths": (_parse_depths, "depths"),
    "euler_steps": (int, "euler_override"),
    "replications": (int, "replications"),
    "seed": (int, "seed"),
    "cost_ceiling": (float, "cost_ceiling"),
    "workers": (int, "workers"),
    "max_depth": (int, "max_depth"),
    "output_dir": (str, "output_dir"),
    "cost_weights": (_parse_weights, "cost_weights"),
}

# a '#' at the start of a line or after whitespace opens a comment
_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key-value config document.

    Raises :class:`ConfigError` carrying every violation found: unknown or
    duplicate keys (duplicates name both lines), type mismatches, and
    invariant violations (replications, dimensions, a Lyapunov weight at
    ``x0`` past the float range, cost ceiling).
    """
    errors: list = []
    seen: dict = {}
    entries: dict = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw_line).strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'key = value', got {raw_line.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            errors.append(f"duplicate key {key!r} on lines {seen[key]} and {line_no}")
            continue
        seen[key] = line_no
        if key not in _KEYS:
            errors.append(f"line {line_no}: unknown key {key!r}")
            continue
        entries[key] = (value, line_no)

    if "problem" not in entries and not any(v.startswith("line") and "'problem'" in v for v in errors):
        errors.append("missing required key 'problem'")

    cfg = ExperimentConfig(problem="")
    for key, (caster, target) in _KEYS.items():
        if key not in entries:
            continue
        value, line_no = entries[key]
        try:
            parsed = caster(value)
        except _BadValue as exc:
            errors.extend(f"line {line_no}: {message}" for message in exc.args)
            parsed = exc.partial
        except ValueError:
            errors.append(f"line {line_no}: key {key!r} has invalid value {value!r}")
            continue
        if parsed is None:
            continue
        if target.startswith("overrides."):
            cfg.overrides[key] = parsed
        else:
            setattr(cfg, target, parsed)

    # environment override for the output directory
    cfg.output_dir = os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir)

    _validate_config(cfg, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def _validate_config(cfg: ExperimentConfig, errors: list) -> None:
    if cfg.replications < 2:
        errors.append(f"replications must be >= 2 (standard errors need variance), got {cfg.replications}")
    errors.extend(_workers_violations(cfg))
    steps_ok = cfg.euler_override is None or cfg.euler_override >= 1
    if not steps_ok:
        errors.append(f"euler_steps must be >= 1, got {cfg.euler_override}")
    if cfg.max_depth < 1:
        errors.append(f"max_depth must be >= 1, got {cfg.max_depth}")
    if not cfg.depths:
        errors.append("depths must contain at least one entry")
    for n, M in cfg.depths:
        if n < 0 or M < 1:
            errors.append(f"depth ({n},{M}) violates n >= 0, M >= 1")
    x0_shape_ok = cfg.x0 is None or cfg.x0.shape == (cfg.dimension,)
    x0_finite = cfg.x0 is None or bool(np.all(np.isfinite(cfg.x0)))
    if not x0_shape_ok:
        errors.append(f"x0 has dimension {cfg.x0.shape[0]}, problem has d = {cfg.dimension}")
    if not x0_finite:
        errors.append(f"x0 entries must be finite, got {cfg.x0.tolist()}")
    problem = None
    if cfg.problem:
        try:
            problem = cfg.build_problem()
        except Exception as exc:
            errors.append(f"problem: {exc}")
    if problem is not None and x0_shape_ok and x0_finite:
        # every report row's error bound reads the Lyapunov weight at x0
        try:
            with np.errstate(over="ignore"):
                problem.bound_params(cfg.query_point())
        except ValueError as exc:
            errors.append(f"x0: {exc}")
    T = problem.T if problem is not None else math.inf
    if not (math.isfinite(cfg.t0) and 0.0 <= cfg.t0 <= T):
        errors.append(f"t0 must be finite and lie in [0, T] with T = {T:g}, got {cfg.t0}")
    # every configured depth must pass the cost ceiling; a NaN ceiling or
    # weight would pass every comparison below, and all-zero weights would too
    if not math.isfinite(cfg.cost_ceiling):
        errors.append(f"cost_ceiling must be finite, got {cfg.cost_ceiling}")
    weights = cfg.cost_weights
    weights_ok = any(weights) and all(math.isfinite(w) and w >= 0 for w in weights)
    if not weights_ok:
        errors.append(f"cost_weights must be finite, >= 0 and not all 0, got {weights}")
    # the bound needs d, N >= 1; a d below 1 is reported as a problem violation
    if weights_ok and steps_ok and cfg.dimension >= 1:
        errors.extend(_cost_ceiling_violations(cfg))


def _workers_violations(cfg: ExperimentConfig) -> list:
    """The message of a worker count below 1, which could cut no seed block."""
    return [f"workers must be >= 1, got {cfg.workers}"] if cfg.workers < 1 else []


@inf_past_float_range  # N = M**M past the float range
def _cost_bound(cfg: ExperimentConfig, n: int, M: int) -> float:
    """The cost recursion bound of depth ``(n, M)`` at the config's path
    length, dimension and weights."""
    return cost_recursion_bound(n, M, cfg.dimension, cfg.resolved_steps(M), cfg.cost_weights)


def _cost_ceiling_violations(cfg: ExperimentConfig) -> list:
    """One message per configured depth ``n >= 0, M >= 1`` whose cost
    recursion bound exceeds the cost ceiling."""
    bounds = [(n, M, _cost_bound(cfg, n, M)) for n, M in cfg.depths if n >= 0 and M >= 1]
    return [f"depth ({n},{M}) exceeds the cost ceiling: "
            f"cost_recursion_bound = {bound:.6g} > {cfg.cost_ceiling:.6g}"
            for n, M, bound in bounds if bound > cfg.cost_ceiling]


def resolve_reference(cfg: ExperimentConfig, problem: Problem) -> Reference:
    """Evaluate the reference oracle for the configured query point: the
    problem's own solution where it has one, else the Picard quadrature, which
    raises :class:`~mlpicard.oracle.OracleError` unless d = 1."""
    if problem.solution is not None:
        return closed_form(problem, cfg.t0, cfg.query_point())
    return picard_quadrature_1d(problem, cfg.t0, cfg.query_point())


def _evaluate_block(task) -> list:
    """Every depth of one seed block, in the given order, as
    ``(wall_seconds, [Estimate per seed])`` per depth."""
    problem_name, overrides, depths, seeds, t0, x0 = task
    problem = instantiate(problem_name, **overrides)
    outcomes = []
    for n, M, steps in depths:
        start = time.perf_counter()
        results = estimate_many(problem, MlpParams(n=n, M=M, euler_steps=steps), seeds, (0,),
                                t0, np.asarray(x0))
        outcomes.append((time.perf_counter() - start, results))
    return outcomes


# A forked child inherits the loaded numpy and scipy modules instead of
# importing them again.  The estimator joins its helper threads before it
# returns, so the calling process has no other thread when it forks.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


def _block_child(task, send) -> None:
    """Child entry: send ``(outcome, None)`` for one seed block, or the
    exception it raised and its traceback text, and exit."""
    try:
        send.send((_evaluate_block(task), None))
    except Exception as exc:
        send.send((exc, traceback.format_exc()))
    send.close()


def _start_child(task) -> tuple:
    """Start a child that evaluates seed block ``task``; returns the process,
    the receiving end of its one-way pipe, and the block's first seed."""
    receive, send = _CONTEXT.Pipe(duplex=False)
    child = _CONTEXT.Process(target=_block_child, args=(task, send))
    child.start()
    send.close()  # the child now holds the only sending end: its exit ends the pipe
    return child, receive, task[3][0]


def _receive(child, receive, first_seed) -> list:
    """The outcome of one child's block; re-raises the exception it sent."""
    try:
        outcome, child_traceback = receive.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"the seed block starting at seed {first_seed} exited with code "
                           f"{child.exitcode} without sending a result") from None
    if child_traceback is not None:
        raise outcome from RuntimeError(
            f"in the child of the seed block starting at seed {first_seed}:\n{child_traceback}")
    return outcome


@dataclass(frozen=True)
class _DepthRun:
    """The replications of one depth: the ``Estimate`` of each seed, in seed
    order, and the slowest seed block's wall time."""

    n: int
    M: int
    N: int
    seeds: list
    estimates: list
    wall: float


@contextmanager
def _depth_runs(cfg: ExperimentConfig, depths: list):
    """Yields one :class:`_DepthRun` per depth.  The replications are cut
    into ``min(workers, replications)`` seed blocks: one child per block 2..
    while this process evaluates block 1.  On leaving the ``with`` body every
    child is joined, and terminated first if the body raised."""
    seeds = [cfg.seed + r for r in range(cfg.replications)]
    blocks = min(cfg.workers, len(seeds))
    cuts = [len(seeds) * b // blocks for b in range(blocks + 1)]
    plan = [(n, M, cfg.resolved_steps(M)) for n, M in depths]
    tasks = [(cfg.problem, cfg.overrides, plan, seeds[lo:hi], cfg.t0, tuple(cfg.query_point()))
             for lo, hi in zip(cuts, cuts[1:])]
    children = []
    try:
        for task in tasks[1:]:
            children.append(_start_child(task))
        outcomes = [_evaluate_block(tasks[0])] + [_receive(*child) for child in children]
        yield [_DepthRun(n, M, steps, seeds,
                         [estimate for block in outcomes for estimate in block[i][1]],
                         max(block[i][0] for block in outcomes))
               for i, (n, M, steps) in enumerate(plan)]
    except BaseException:
        for child, _, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive, _ in children:
            child.join()
            receive.close()


def _report_row(cfg: ExperimentConfig, problem: Problem, run: _DepthRun,
                reference: Reference) -> ReportRow:
    values = np.array([estimate.value for estimate in run.estimates])
    costs = np.array([estimate.cost.weighted(*cfg.cost_weights) for estimate in run.estimates])
    reps = len(values)
    sq_err = (values - reference.value) ** 2
    mse = float(sq_err.mean())
    rmse = math.sqrt(mse)
    if reps > 1 and rmse > 0:
        rmse_se = float(sq_err.std(ddof=1) / math.sqrt(reps) / (2.0 * rmse))
    else:
        rmse_se = 0.0
    bp = problem.bound_params(cfg.query_point())
    return ReportRow(
        n=run.n, M=run.M, N=run.N,
        value_mean=float(values.mean()),
        value_se=float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        rmse_vs_reference=rmse,
        rmse_se=rmse_se,
        reference_value=reference.value,
        reference_ci_halfwidth=reference.ci_halfwidth,
        theoretical_error_bound=error_bound(run.n, run.M, bp),
        tallied_cost=float(costs.mean()),
        cost_recursion_bound=_cost_bound(cfg, run.n, run.M),
        wall_time_seconds=run.wall,
    )


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(header: list, rows: list, path: str) -> None:
    """Write rows as RFC-4180-style CSV: fixed header, 17-significant-digit
    decimal text for floats, LF line endings."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")


def run_experiment(cfg: ExperimentConfig):
    """Run every configured depth and write the three CSV reports.

    Returns ``(rows, reference, paths)`` with one :class:`ReportRow` per
    configured (n, M), in config order.  A worker count below 1 or a depth
    past the cost ceiling raises :class:`ConfigError` before any depth runs.
    """
    problem = cfg.build_problem()
    violations = _workers_violations(cfg) + _cost_ceiling_violations(cfg)
    if violations:
        raise ConfigError(violations)
    reference = resolve_reference(cfg, problem)
    # the children are joined after the reports, which their exit overlaps
    with _depth_runs(cfg, cfg.depths) as runs:
        rows = [_report_row(cfg, problem, run, reference) for run in runs]
        paths = {name: os.path.join(cfg.output_dir, f"{name}.csv")
                 for name in ("results", "raw", "bounds")}
        emit_csv(RESULTS_HEADER, [[getattr(r, h) for h in RESULTS_HEADER] for r in rows],
                 paths["results"])
        emit_csv(RAW_HEADER, [
            [run.n, run.M, run.N, seed, estimate.value, *astuple(estimate.cost),
             estimate.cost.weighted(*cfg.cost_weights)]
            for run in runs for seed, estimate in zip(run.seeds, run.estimates)
        ], paths["raw"])
        emit_csv(BOUNDS_HEADER, [
            [r.n, r.M, r.N, r.theoretical_error_bound, r.cost_recursion_bound] for r in rows
        ], paths["bounds"])
    return rows, reference, paths


@dataclass
class SweepRow:
    epsilon: float
    status: str  # ok | cost-ceiling | max-depth
    n_star: int = -1
    rmse: float = math.nan
    rmse_plus_2se: float = math.nan
    cost_sum: float = math.nan
    total_cost_bound: float = math.nan
    cost_times_eps_power: float = math.nan
    tripped_bound: float = 0.0
    depth_rows: list = field(default_factory=list)


def find_depth_for_epsilon(cfg: ExperimentConfig, epsilons):
    """Empirical depth search: smallest n (with M = n) whose empirical RMSE
    plus a two-standard-error margin beats each target accuracy.

    Scans n = 1, 2, ... and stops at the configured cost ceiling or depth
    cap, emitting an explicit failure row instead of a result.  Depth runs
    are shared across targets (they are deterministic in the config) and
    use ``cfg.workers`` processes, as in :func:`run_experiment`: each depth
    run forks its children and joins them before the scan goes on.
    Reported cost is the per-realization mean of the weighted tally, summed
    over all depths up to n*.  A worker count below 1 raises
    :class:`ConfigError` before any depth runs.
    """
    violations = _workers_violations(cfg)
    if violations:
        raise ConfigError(violations)
    if np.isscalar(epsilons):
        epsilons = [float(epsilons)]
    for eps in epsilons:
        if not (0.0 < eps <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
    problem = cfg.build_problem()
    reference = resolve_reference(cfg, problem)
    w_draw, w_step, w_g, w_f = cfg.cost_weights
    folded_m = w_step + problem.d * w_draw
    folded_f = w_draw + 2.0 * w_f

    depth_cache: dict = {}
    sweep_rows = []
    for eps in epsilons:
        n = 0
        row = None
        while True:
            n += 1
            if n > cfg.max_depth:
                row = SweepRow(eps, "max-depth", tripped_bound=float(cfg.max_depth))
                break
            bound = _cost_bound(cfg, n, n)
            if bound > cfg.cost_ceiling:
                row = SweepRow(eps, "cost-ceiling", tripped_bound=bound)
                break
            if n not in depth_cache:
                with _depth_runs(cfg, [(n, n)]) as (run,):
                    depth_cache[n] = _report_row(cfg, problem, run, reference)
            report = depth_cache[n]
            margin = report.rmse_vs_reference + 2.0 * report.rmse_se
            if margin < eps:
                cost_sum = sum(depth_cache[k].tallied_cost for k in range(1, n + 1))
                row = SweepRow(
                    epsilon=eps, status="ok", n_star=n,
                    rmse=report.rmse_vs_reference, rmse_plus_2se=margin,
                    cost_sum=cost_sum,
                    total_cost_bound=total_cost_bound(n, folded_m, w_g, folded_f),
                    cost_times_eps_power=cost_sum * eps ** 5.0,
                )
                break
        row.depth_rows = [depth_cache[k] for k in sorted(depth_cache)]
        sweep_rows.append(row)
    return sweep_rows, reference


def write_sweep_csv(sweep_rows, path: str) -> None:
    emit_csv(SWEEP_HEADER, [[getattr(r, h) for h in SWEEP_HEADER] for r in sweep_rows], path)
