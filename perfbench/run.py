#!/usr/bin/env python3
"""mlpicard benchmark.

Run from the repository root:

    python3 perfbench/run.py                   # every workload, one after another
    python3 perfbench/run.py --workload sine-deep --seed 3 --seconds 30 --trace 0

Each workload runs as one client making back-to-back operations (a closed
loop: no server, no arrival rate) for ``--seconds``, in a fresh process of its
own, so ``peak_rss_mib`` belongs to that workload alone.  ``setup_s`` is the
median over ``SETUP_PROBES`` more fresh processes and the measuring one, each
timing the imports, the problem and config set-up, the reference and one
untimed warm-up operation.

``--trace 1`` gives the per-layer split instead: it alternates an untraced and
a traced operation on the same input and reports, per traced operation, the
calls, self time and work of each layer (see ``tracer.py``), plus the cost of
tracing.  heat-run is traced at ``trace_workers`` (1) so the estimator layers
run in the traced process.  Layer times that are zero by construction on some
workload (the coefficient callables on heat-run's constant-coefficient path;
oracle, bounds and harness on the estimate workloads) are printed and recorded
but are not ``BENCHMARK.json`` metrics, whose times must vary between runs;
their call counts are.

Every operation's output is checked (see ``workloads.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the metric names and units taken from ``BENCHMARK.json``.  A
record of each run, with the machine and version facts, is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
from tracer import Tracer  # noqa: E402  (after disabling .pyc writes)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 2
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run a workload at all."""


# ---------------------------------------------------------------------------
# child process: set up, warm up, then measure or trace


def _op(wl, seed: int, tracer=None):
    """Run and check one operation; returns (seconds, Outcome), or None if it failed."""
    try:
        with tracer.installed() if tracer else nullcontext():
            start = perf_counter()
            result = wl.run(seed, tracer)
            elapsed = perf_counter() - start
        return elapsed, wl.check(seed, result)
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc()
        return None


def _measure(wl, seed: int, seconds: float, report: dict) -> None:
    durations, steps = [], 0
    deadline = perf_counter() + seconds
    for root_seed in itertools.count(seed):
        report["attempted"] += 1
        done = _op(wl, root_seed)
        if done is None:
            report["failed"] += 1
        else:
            durations.append(done[0])
            steps += done[1].tally["euler_steps"]
        if perf_counter() >= deadline:
            break
    report["durations"] = durations
    report["steps"] = steps


def _trace(wl, seed: int, seconds: float, report: dict) -> None:
    tracer = Tracer()
    plain_s = traced_s = 0.0
    ops = 0
    tally, extras = {}, {}
    deadline = perf_counter() + seconds
    for root_seed in itertools.count(seed):
        report["attempted"] += 2
        plain, traced = _op(wl, root_seed), _op(wl, root_seed, tracer)
        if plain is None or traced is None:
            report["failed"] += (plain is None) + (traced is None)
        elif plain[1].signature != traced[1].signature:
            print(f"seed {root_seed}: traced output differs from untraced", file=sys.stderr)
            report["failed"] += 1
        else:
            ops += 1
            plain_s += plain[0]
            traced_s += traced[0]
            for acc, new in ((tally, traced[1].tally), (extras, traced[1].extras)):
                for k, v in new.items():
                    acc[k] = acc.get(k, 0) + v
        if perf_counter() >= deadline:
            break
    if ops == 0:
        raise BenchError("no traced operation succeeded")
    report["layers"] = _layer_metrics(tracer, ops, tally, extras, wl.parse_config_s)
    report["layers"]["trace_overhead_frac"] = traced_s / plain_s - 1.0
    report["trace_ops"] = ops
    report["trace_edges"] = tracer.edge_table()


def _layer_metrics(tracer, ops: int, tally: dict, extras: dict, parse_config_s: float) -> dict:
    """Per-layer metrics per traced operation; the self times add up to trace.op_wall_s."""
    spans = tracer.by_span()

    def span(name):
        return spans.get(name, [0, 0.0, 0.0, 0])

    steps = tally.get("euler_steps", 0)

    def per(x, base):
        return x / base if base else 0.0

    out = {}
    for name in ("euler.simulate_batch", "problems.coeff", "euler.update_times"):
        calls, _, self_s, _ = span(name)
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_s"] = self_s / ops
        out[f"{name}.ns_per_step"] = per(self_s * 1e9, steps)
    batch = span("euler.simulate_batch")
    out["euler.paths_per_call"] = per(batch[3], batch[0])
    fg = span("problems.fg")
    out["problems.fg.calls"] = fg[0] / ops
    out["problems.fg.self_s"] = fg[2] / ops
    problems_s = span("problems.coeff")[2] + fg[2]
    out["problems.self_s"] = problems_s / ops
    out["problems.ns_per_step"] = per(problems_s * 1e9, steps)
    streams = span("rng.stream_for")
    out["rng.stream_for.calls"] = streams[0] / ops
    out["rng.stream_for.self_s"] = streams[2] / ops
    out["rng.stream_for.ns_per_call"] = per(streams[2] * 1e9, streams[0])
    draws = span("rng.gaussians")
    out["rng.gaussians.draws"] = draws[3] / ops
    out["rng.gaussians.self_s"] = draws[2] / ops
    out["rng.gaussians.ns_per_draw"] = per(draws[2] * 1e9, draws[3])
    est = span("mlp.estimate")
    out["mlp.estimate.calls"] = est[0] / ops
    out["mlp.self_s"] = est[2] / ops
    out["mlp.self_ns_per_step"] = per(est[2] * 1e9, steps)
    for k, v in tally.items():
        out[f"mlp.tally.{k}"] = v / ops
    out["oracle.reference.calls"] = span("oracle.reference")[0] / ops
    out["oracle.reference_s"] = span("oracle.reference")[2] / ops
    out["oracle.cache_hit"] = extras.get("cache_hit", 0) / ops
    out["bounds.calls"] = span("bounds")[0] / ops
    out["bounds.self_s"] = span("bounds")[2] / ops
    out["harness.parse_config_s"] = parse_config_s
    out["harness.depth_s"] = extras.get("depth_s", 0.0) / ops
    out["harness.emit_csv.calls"] = span("harness.emit_csv")[0] / ops
    out["harness.emit_csv_s"] = span("harness.emit_csv")[2] / ops
    out["harness.csv_bytes"] = extras.get("csv_bytes", 0) / ops
    out["harness.overhead_s"] = span("harness.run_experiment")[2] / ops
    out["trace.op_wall_s"] = tracer.root_wall() / ops

    self_sum = sum(s[2] for s in spans.values()) / ops
    if abs(self_sum - out["trace.op_wall_s"]) > 1e-9 + 1e-9 * out["trace.op_wall_s"]:
        raise BenchError(f"layer self times {self_sum} do not add up to {out['trace.op_wall_s']}")
    return out


def child_main(args) -> None:
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, scipy and mlpicard: part of set-up

    report = {"attempted": 1, "failed": 0}
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        wl = workloads.make(args.workload, workdir, trace=bool(args.trace))
        warm = wl.run(wl.warm_seed)
        report["setup_s"] = perf_counter() - start
        try:
            wl.check(wl.warm_seed, warm)
        except workloads.CheckFailed:
            traceback.print_exc()
            report["failed"] += 1
        if args.child == "measure":
            (_trace if args.trace else _measure)(wl, args.seed, args.seconds, report)

    import numpy  # already loaded by the set-up; bound here for their versions
    import scipy

    import mlpicard

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report["peak_rss_mib"] = kib / 1024.0
    report["versions"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mlpicard": mlpicard.__version__,
        "rng_algorithm": mlpicard.RNG_ALGORITHM,
    }
    print(json.dumps(report))


# ---------------------------------------------------------------------------
# parent process: start the children, report


def _spawn(role: str, args, workload: str, deadline: float) -> dict:
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--child", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, TMPDIR=str(RESULTS))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload} {role} process overran the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} {role} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _machine() -> dict:
    """nproc, CPU model and cache sizes, and the git revision where there is one."""
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "machine": platform.machine()}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            facts[key.strip().lower().replace(" ", "_")] = value.strip()
    if "l2_cache" not in facts:
        cpuinfo = Path("/proc/cpuinfo").read_text() if Path("/proc/cpuinfo").exists() else ""
        for line in cpuinfo.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("model name", "cache size"):
                facts.setdefault(key.strip().replace(" ", "_"), value.strip())
    facts["git_revision"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            facts["git_revision"] = rev.stdout.strip()
    return facts


def _percentiles(durations: list) -> dict:
    """Median, plus the highest of p90/p99 with at least ten samples beyond it."""
    out = {"op_p50_s": statistics.median(durations)}
    ordered = sorted(durations)
    for q in (90, 99):
        rank = math.ceil(len(ordered) * q / 100)
        if len(ordered) - rank >= 10:
            out[f"op_p{q}_s"] = ordered[rank - 1]
    return out


def run_workload(args, workload: str, spec: dict, params: dict, machine: dict) -> dict:
    deadline = perf_counter() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    probes = [] if args.trace else [_spawn("setup", args, workload, deadline)
                                    for _ in range(SETUP_PROBES)]
    main = _spawn("measure", args, workload, deadline)
    runs = probes + [main]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    extra = {"failed_frac": failed / attempted}
    if args.trace:
        values = main["layers"]
        extra["traced_ops"] = main["trace_ops"]
        metrics = spec["per_layer"]
    else:
        durations = main["durations"]
        if not durations:
            raise BenchError(f"{workload}: no operation succeeded")
        values = {"steps_per_s": main["steps"] / sum(durations),
                  "setup_s": statistics.median(r["setup_s"] for r in runs),
                  "peak_rss_mib": main["peak_rss_mib"],
                  **_percentiles(durations)}
        extra["ops"] = len(durations)
        extra.update((k, v) for k, v in values.items() if k.startswith("op_p9"))
        metrics = spec["end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics}}

    header = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine, **main["versions"]}
    if args.trace and "trace_workers" in params:
        header["traced_at_workers"] = params["trace_workers"]
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    for name, m in result["metrics"].items():
        print(f"{workload:>11} {name:<34} {m['value']:>14.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{workload:>11} {name:<34} {value:>14.6g}")
    for name, value in values.items():  # kept in the record only
        if name not in result["metrics"] and name not in extra:
            print(f"{workload:>11} {name:<34} {value:>14.6g}")
    record = {"header": header, "result": result, "extra": extra, "values": values,
              "setup_samples": [r["setup_s"] for r in runs],
              **{k: main[k] for k in ("durations", "trace_edges") if k in main}}
    path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    params = json.loads((HERE / "workloads.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(params), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args)
        return 0

    try:
        machine = _machine()
        names = [args.workload] if args.workload else list(params)
        results = {name: run_workload(args, name, spec, params[name], machine) for name in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
