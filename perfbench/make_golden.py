#!/usr/bin/env python3
"""Record ``golden.json``: the 17-digit value and full cost tally of the
estimate workloads at root seeds ``0 .. SEEDS-1``.

Run from the repository root:  python3 perfbench/make_golden.py

The benchmark checks every operation whose root seed has a record here.
Re-record only in a change that says it alters the estimator's output, for
example by bumping ``RNG_ALGORITHM``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.dont_write_bytecode = True

import mlpicard  # noqa: E402
import workloads  # noqa: E402

SEEDS = 32


def main() -> None:
    revision = subprocess.run(["git", "-C", str(HERE.parent), "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    record = {"revision": revision, "rng_algorithm": mlpicard.RNG_ALGORITHM, "estimates": {}}
    for name, spec in workloads.SPEC.items():
        if spec["kind"] != "estimate":
            continue
        wl = workloads.make(name, "", trace=False, golden={})
        entries = record["estimates"][name] = {}
        for seed in range(SEEDS):
            outcome = wl.check(seed, wl.run(seed))
            value, tally = outcome.signature
            entries[str(seed)] = {"value": value, "tally": tally}
            print(name, seed, value, flush=True)
    (HERE / "golden.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
