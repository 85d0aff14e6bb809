"""Golden pins: outputs recorded once and compared bit for bit.

The heat-run and sweep CSVs are the committed ``out/heat-d1/`` files.  The
estimate values below are 17-significant-digit literals with their full cost
tallies; every case has d >= 2, so a change in how the diffusion coefficient
is applied to the Brownian increments would show in the last bits.
"""

import dataclasses
import os

import numpy as np
import pytest

from mlpicard.harness import find_depth_for_epsilon, parse_config, run_experiment, write_sweep_csv
from mlpicard.mlp import MlpParams, estimate
from mlpicard.problems import instantiate

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEAT_CONFIG = os.path.join(REPO_ROOT, "configs", "heat_quadratic_d1.cfg")
HEAT_OUTPUT = os.path.join(REPO_ROOT, "out", "heat-d1")
HEAT_DEPTHS = [(1, 1), (2, 2), (3, 3)]


def _committed_rows(name: str, depths) -> bytes:
    """Header plus the committed rows whose leading (n, M) is in ``depths``."""
    with open(os.path.join(HEAT_OUTPUT, name), "rb") as fh:
        lines = fh.read().split(b"\n")
    prefixes = tuple(f"{n},{M},".encode() for n, M in depths)
    kept = [lines[0]] + [ln for ln in lines[1:] if ln.startswith(prefixes)]
    return b"\n".join(kept) + b"\n"


def test_heat_run_matches_committed_csvs(tmp_path):
    with open(HEAT_CONFIG, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    cfg = dataclasses.replace(cfg, depths=HEAT_DEPTHS, workers=1, output_dir=str(tmp_path))
    _, _, paths = run_experiment(cfg)
    for key in ("results", "raw", "bounds"):
        with open(paths[key], "rb") as fh:
            produced = fh.read()
        assert produced == _committed_rows(f"{key}.csv", HEAT_DEPTHS), key


def test_heat_sweep_matches_committed_csv(tmp_path):
    with open(HEAT_CONFIG, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    sweep_rows, _ = find_depth_for_epsilon(cfg, [0.5])
    path = os.path.join(tmp_path, "sweep.csv")
    write_sweep_csv(sweep_rows, path)
    with open(path, "rb") as fh, open(os.path.join(HEAT_OUTPUT, "sweep.csv"), "rb") as want:
        assert fh.read() == want.read()


def _tally(uniforms, gaussians, euler_steps, g_evals=117, f_evals=159):
    return {"uniforms": uniforms, "gaussians": gaussians, "euler_steps": euler_steps,
            "g_evals": g_evals, "f_evals": f_evals}


# (problem, overrides, x, root seed, value, tally) at (n, M) = (3, 3), N = 27, t = 0.1
ESTIMATES = [
    ("nonlinear-coeff-sine", {"d": 2}, [0.3, -0.7], 0,
     4.831046475620511, _tally(138, 3896, 1948)),
    ("nonlinear-coeff-sine", {"d": 2}, [0.3, -0.7], 1,
     6.7412434807220825, _tally(138, 4468, 2234)),
    ("scaled-bs", {"d": 4}, [1.0, 0.8, 1.2, 0.9], 0,
     0.328149183026108, _tally(138, 7792, 1948)),
    ("scaled-bs", {"d": 4}, [1.0, 0.8, 1.2, 0.9], 1,
     0.28727762296115733, _tally(138, 8936, 2234)),
    ("heat-quadratic", {"d": 3}, [0.5, -0.25, 1.0], 0,
     4.4609310921107035, _tally(138, 5844, 1948)),
    ("heat-quadratic", {"d": 3}, [0.5, -0.25, 1.0], 1,
     4.06508154666968, _tally(138, 6702, 2234)),
]


@pytest.mark.parametrize("name,overrides,x,seed,value,tally", ESTIMATES)
def test_estimate_matches_pinned_value(name, overrides, x, seed, value, tally):
    prob = instantiate(name, **overrides)
    result = estimate(prob, MlpParams(n=3, M=3, root_seed=seed), (0,), 0.1, np.array(x))
    assert result.value == value
    assert dataclasses.asdict(result.cost) == tally


def test_shipped_baseline_rep0_recomputes():
    """The deepest pin: the sine estimate at (n, M, N) = (5, 5, 512), seed
    777 and (t, x) = (0, 0), to all 17 digits.  It is replication 0 of the
    depth-5 reference the sine config used to ship."""
    prob = instantiate("nonlinear-coeff-sine", d=1, kappa=0.5, lip_f=0.5)
    params = MlpParams(n=5, M=5, euler_steps=512, root_seed=777)
    result = estimate(prob, params, (0,), 0.0, np.zeros(1))
    assert format(result.value, ".17g") == "3.3671698897795719"


def test_depth_five_sine_pin():
    """The sine estimate at (n, M, N) = (5, 5, 25), root seed 0 and (t, x) =
    (0, 0): a deep tree whose sub-estimates of one depth start from many
    different points, value bits and tally."""
    prob = instantiate("nonlinear-coeff-sine", d=1)
    result = estimate(prob, MlpParams(5, 5, 25, root_seed=0), (0,), 0.0, [0.0])
    assert result.value == float.fromhex("0x1.b34aa4ee5f418p+1")
    assert dataclasses.asdict(result.cost) == _tally(63_705, 776_910, 776_910, 57_625, 69_785)
