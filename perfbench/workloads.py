"""The benchmark's workloads: set-up, one operation, and the check of its output.

An operation is one ``mlpicard.estimate`` call (sine-deep, bs-wide-d8) or one
``mlpicard.harness.run_experiment`` call (heat-run).  Operation ``i`` of a run
with workload seed ``s`` uses root seed ``s + i``; for heat-run that seed
replaces the config's ``seed``.  The untimed warm-up of every run uses the
input that has a golden record: root seed 0 for the estimate workloads and the
config's own seed for heat-run, so each run checks bit-identity at least once.

An operation fails if it raises, returns a non-finite value, or has a unit-
weight (or, for heat-run, config-weighted) tally above ``cost_recursion_bound``;
where a golden record exists it also fails on any differing digit or count.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import mlpicard
from mlpicard import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not Path(mlpicard.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"mlpicard imported from {mlpicard.__file__}, not from {ROOT / 'src'}")
SPEC = json.loads((HERE / "workloads.json").read_text())["workloads"]
GOLDEN = HERE / "golden.json"
THETA = (0,)
TALLY_FIELDS = ("uniforms", "gaussians", "euler_steps", "g_evals", "f_evals")
CSV_FILES = ("results", "raw", "bounds")


class CheckFailed(AssertionError):
    """An operation's output violates an invariant or its golden record."""


@dataclass
class Outcome:
    tally: dict      # exact work counts, TALLY_FIELDS
    extras: dict     # per-operation figures the trace reports
    signature: object  # equal for equal outputs; compares traced with untraced runs


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class EstimateWorkload:
    warm_seed = 0

    def __init__(self, name: str, spec: dict, golden: dict):
        self.name = name
        self.problem = mlpicard.instantiate(spec["problem"], **spec["overrides"])
        self.n, self.M, self.N, self.t = spec["n"], spec["M"], spec["N"], spec["t"]
        self.x = np.full(spec["d"], float(spec["x"]))
        self.bound = mlpicard.cost_recursion_bound(self.n, self.M, spec["d"], self.N, (1, 1, 1, 1))
        self.golden = golden.get(name, {})
        self.parse_config_s = 0.0

    def run(self, seed: int, tracer=None):
        problem = tracer.wrap_problem(self.problem) if tracer else self.problem
        params = mlpicard.MlpParams(n=self.n, M=self.M, euler_steps=self.N, root_seed=seed)
        return mlpicard.estimate(problem, params, THETA, self.t, self.x)

    def check(self, seed: int, est) -> Outcome:
        tally = {k: int(getattr(est.cost, k)) for k in TALLY_FIELDS}
        value = format(est.value, ".17g")
        if not _finite(est.value):
            raise CheckFailed(f"{self.name} seed {seed}: non-finite value {value}")
        if sum(tally.values()) > self.bound:
            raise CheckFailed(f"{self.name} seed {seed}: tally {tally} above bound {self.bound}")
        want = self.golden.get(str(seed))
        if want is not None and (value != want["value"] or tally != want["tally"]):
            raise CheckFailed(f"{self.name} seed {seed}: got {value} {tally}, golden {want}")
        return Outcome(tally=tally, extras={}, signature=(value, tally))


class ExperimentWorkload:
    def __init__(self, name: str, spec: dict, workers: int, workdir: str):
        self.name = name
        text = (ROOT / spec["config"]).read_text()
        start = perf_counter()
        cfg = harness.parse_config(text)
        self.parse_config_s = perf_counter() - start
        self.warm_seed = cfg.seed  # the seed the committed CSVs were written with
        cfg.depths = list(zip(spec["n"], spec["M"]))
        cfg.workers = workers
        cfg.output_dir = workdir  # never the committed output directory
        problem = cfg.build_problem()
        harness.resolve_reference(cfg, problem)
        self.cfg = cfg
        self.bounds = {
            (n, M): mlpicard.cost_recursion_bound(n, M, problem.d, cfg.resolved_steps(M),
                                                  cfg.cost_weights)
            for n, M in cfg.depths
        }
        self.golden_dir = ROOT / spec["golden_dir"]
        self.golden = {f: self._golden_rows(self.golden_dir / f"{f}.csv") for f in CSV_FILES}

    def _golden_rows(self, path: Path) -> bytes:
        """Header plus the committed rows of the depths this workload runs."""
        header, *rows = path.read_bytes().split(b"\n")[:-1]
        keep = [r for r in rows if tuple(int(v) for v in r.split(b",")[:2]) in self.bounds]
        return b"\n".join([header, *keep]) + b"\n"

    def run(self, seed: int, tracer=None):
        return harness.run_experiment(dataclasses.replace(self.cfg, seed=seed))

    def check(self, seed: int, result) -> Outcome:
        rows, reference, paths = result
        produced = {f: Path(paths[f]).read_bytes() for f in CSV_FILES}
        if seed == self.warm_seed:
            for f, want in self.golden.items():
                if produced[f] != want:
                    raise CheckFailed(f"{f}.csv at seed {seed} differs from {self.golden_dir}")
        tally = dict.fromkeys(TALLY_FIELDS, 0)
        raw = [line.split(",") for line in produced["raw"].decode().splitlines()]
        col = {name: i for i, name in enumerate(raw[0])}
        if len(raw) - 1 != self.cfg.replications * len(self.bounds):
            raise CheckFailed(f"raw.csv at seed {seed} has {len(raw) - 1} rows")
        for cells in raw[1:]:
            depth = (int(cells[col["n"]]), int(cells[col["M"]]))
            if not _finite(float(cells[col["value"]])):
                raise CheckFailed(f"raw.csv at seed {seed}: non-finite value in {cells}")
            if float(cells[col["weighted_cost"]]) > self.bounds[depth]:
                raise CheckFailed(f"raw.csv at seed {seed}: cost above bound in {cells}")
            for k in TALLY_FIELDS:
                tally[k] += int(cells[col[k]])
        results = [line.split(",") for line in produced["results"].decode().splitlines()]
        col = {name: i for i, name in enumerate(results[0])}
        for cells in results[1:]:
            if not _finite(*(float(cells[col[k]]) for k in
                             ("value_mean", "value_se", "rmse_vs_reference"))):
                raise CheckFailed(f"results.csv at seed {seed}: non-finite entry in {cells}")
        extras = {
            "cache_hit": int(bool(reference.diagnostics.get("cache_hit", False))),
            "depth_s": sum(r.wall_time_seconds for r in rows),
            "csv_bytes": sum(len(b) for b in produced.values()),
        }
        return Outcome(tally=tally, extras=extras, signature=produced)


def make(name: str, workdir: str, trace: bool, golden=None):
    """Set up workload ``name``; ``golden`` defaults to the recorded golden.json."""
    spec = SPEC[name]
    if spec["kind"] == "experiment":
        return ExperimentWorkload(name, spec, spec["trace_workers" if trace else "workers"], workdir)
    if golden is None:
        golden = json.loads(GOLDEN.read_text())["estimates"]
    return EstimateWorkload(name, spec, golden)
