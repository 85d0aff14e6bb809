"""The benchmark's own output check, run on each workload's warm seed.

``perfbench/workloads.py`` compares an operation's output with
``perfbench/golden.json`` or the committed ``out/heat-d1`` CSVs.  Running it
here makes a change to the API the benchmark calls, or to a golden bit, fail
the test suite and not only a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", ["sine-deep", "bs-wide-d8", "heat-run"])
def test_warm_seed_passes_the_benchmark_check(workloads, tmp_path, name):
    # heat-run writes its CSVs under tmp_path and forks one child
    workload = workloads.make(name, str(tmp_path), trace=False)
    outcome = workload.check(workload.warm_seed, workload.run(workload.warm_seed))
    assert sum(outcome.tally.values()) > 0
