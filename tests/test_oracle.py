"""Reference oracles: closed forms, quadrature fixed point, cached baselines."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlpicard import ESTIMATOR_VERSION, RNG_ALGORITHM, mlp, oracle
from mlpicard.oracle import (
    BaselineBudget,
    OracleError,
    closed_form,
    mc_baseline,
    picard_quadrature_1d,
    problem_fingerprint,
)
from mlpicard.problems import CATALOGUE, instantiate

# Each catalogue problem's fingerprint at its defaults and (t, x) = (0, 0).
# The shipped baseline's cache key and every provenance string depend on it.
FINGERPRINTS = {
    "heat-quadratic": "heat-quadratic|T=1|a=1|d=1|t=0|x=0",
    "linear-reaction": "linear-reaction|T=1|a=1|d=1|t=0|x=0",
    "nonlinear-coeff-sine":
        "nonlinear-coeff-sine|T=1|a=1|d=1|kappa=0.5|lip_f=0.5|source=1|t=0|x=0",
    "scaled-bs": "scaled-bs|T=1|a=1|d=1|lip_f=0.5|mu_bar=0.059999999999999998"
                 "|sigma_bar=0.40000000000000002|strike=1|t=0|x=0",
}


@pytest.mark.parametrize("name", CATALOGUE)
def test_catalogue_fingerprint_is_pinned(name):
    assert problem_fingerprint(instantiate(name), 0.0, np.zeros(1)) == FINGERPRINTS[name]


class TestClosedForm:
    def test_heat_origin_value(self):
        prob = instantiate("heat-quadratic", d=1, T=1.0)
        assert closed_form(prob, 0.0, [0.0]).value == 1.0

    def test_heat_terminal_condition(self):
        prob = instantiate("heat-quadratic", d=3, T=2.0)
        x = np.array([0.5, -1.0, 2.0])
        assert closed_form(prob, 2.0, x).value == pytest.approx(float(x @ x), rel=1e-15)

    def test_heat_against_direct_monte_carlo(self):
        # 1e6 endpoint samples of the exact diffusion x + W_T
        prob = instantiate("heat-quadratic", d=1, T=1.0)
        rng = np.random.default_rng(8)
        samples = (0.3 + rng.standard_normal(1_000_000)) ** 2
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        ref = closed_form(prob, 0.0, [0.3])
        assert abs(ref.value - samples.mean()) <= 4 * se

    def test_linear_reaction_terminal_profile_is_quadratic(self):
        # at t = T the exponential profile factors equal one and zero
        prob = instantiate("linear-reaction", d=2, T=1.5)
        x = np.array([1.0, -0.5])
        assert closed_form(prob, 1.5, x).value == pytest.approx(float(x @ x), rel=1e-15)

    def test_linear_reaction_origin_value(self):
        prob = instantiate("linear-reaction", d=1, T=1.0)
        assert closed_form(prob, 0.0, [0.0]).value == pytest.approx(math.e, rel=1e-15)

    def test_exact_references_have_zero_halfwidth(self):
        prob = instantiate("heat-quadratic")
        ref = closed_form(prob, 0.5, [0.2])
        assert ref.ci_halfwidth == 0.0 and ref.method == "closed_form"

    def test_unsupported_problem(self):
        with pytest.raises(OracleError):
            closed_form(instantiate("nonlinear-coeff-sine"), 0.0, [0.0])


# (t, x, error, message) of query points at d = 2 that no oracle may answer
BAD_QUERIES_D2 = [
    (0.0, [1.0], ValueError, "x must have shape"),
    (0.0, [1.0, 2.0, 3.0], ValueError, "x must have shape"),
    (0.0, [math.nan, 0.0], ValueError, "x must be finite"),
    (True, [0.0, 0.0], TypeError, "t must be a number"),
    (1.5, [0.0, 0.0], ValueError, "t must lie in"),
]


@pytest.mark.parametrize("t, x, error, message", BAD_QUERIES_D2)
def test_closed_form_checks_the_query_point(t, x, error, message):
    # it used to answer 3.0, 16.0 and nan for the first three
    with pytest.raises(error, match=message):
        closed_form(instantiate("heat-quadratic", d=2), t, x)


@pytest.mark.parametrize("t, x, error, message", [
    (0.0, [1.0, 5.0], ValueError, "x must have shape"),
    (0.0, [math.nan], ValueError, "x must be finite"),
    (np.True_, [0.0], TypeError, "t must be a number"),
    (-0.5, [0.0], ValueError, "t must lie in"),
])
def test_picard_quadrature_checks_the_query_point(t, x, error, message, recwarn):
    # it used to read x[0] of the first and warn from np.linspace on the second
    with pytest.raises(error, match=message):
        picard_quadrature_1d(instantiate("heat-quadratic"), t, x)
    assert not recwarn.list


@pytest.mark.parametrize("t, x, error, message", BAD_QUERIES_D2)
def test_mc_baseline_checks_the_query_point_before_the_cache(t, x, error, message,
                                                             tmp_path, monkeypatch):
    monkeypatch.setattr(oracle, "_read_cache", None)  # any cache lookup would fail here
    with pytest.raises(error, match=message):
        mc_baseline(instantiate("heat-quadratic", d=2), t, x, BUDGET, seed=1,
                    cache_path=str(tmp_path))
    assert not any(tmp_path.iterdir())


class TestPicardQuadrature:
    def test_zero_reaction_converges_in_one_iterate(self):
        prob = instantiate("heat-quadratic", d=1)
        ref = picard_quadrature_1d(prob, 0.0, [0.0], depth=3)
        deltas = ref.diagnostics["iterate_deltas"]
        assert deltas[1] == 0.0 and deltas[2] == 0.0
        assert ref.value == pytest.approx(1.0, abs=1e-9)

    def test_matches_closed_form_at_depth_eight(self):
        prob = instantiate("linear-reaction", d=1)
        exact = closed_form(prob, 0.0, [0.0])
        ref = picard_quadrature_1d(prob, 0.0, [0.0], depth=8, nodes=64)
        assert abs(ref.value - exact.value) <= 1e-4

    def test_default_depth_reports_tight_halfwidth(self):
        prob = instantiate("linear-reaction", d=1)
        ref = picard_quadrature_1d(prob, 0.0, [0.0])
        assert ref.ci_halfwidth <= 1e-5
        exact = closed_form(prob, 0.0, [0.0])
        assert abs(ref.value - exact.value) <= 1e-5

    def test_contraction_ratio_bounded_by_horizon_lipschitz(self):
        for name, lip in [("linear-reaction", 1.0), ("nonlinear-coeff-sine", 0.5)]:
            prob = instantiate(name, d=1) if name == "linear-reaction" else \
                instantiate(name, kappa=0.0, lip_f=lip)
            ref = picard_quadrature_1d(prob, 0.0, [0.0], depth=10)
            deltas = ref.diagnostics["iterate_deltas"]
            ratios = [deltas[i + 1] / deltas[i] for i in range(1, len(deltas) - 1)
                      if deltas[i] > 1e-13]
            assert all(r <= lip * prob.T + 0.05 for r in ratios)

    def test_deterministic_across_runs(self):
        prob = instantiate("nonlinear-coeff-sine", kappa=0.0)
        a = picard_quadrature_1d(prob, 0.2, [0.4], depth=6)
        b = picard_quadrature_1d(prob, 0.2, [0.4], depth=6)
        assert a.value == b.value and a.ci_halfwidth == b.ci_halfwidth

    def test_only_this_route_loads_scipy_interpolate(self):
        # a fresh interpreter: this session has loaded every module already
        script = (
            "import sys\n"
            "import mlpicard, mlpicard.harness, mlpicard.cli\n"
            "print('scipy.interpolate' in sys.modules)\n"
            "from mlpicard.oracle import picard_quadrature_1d\n"
            "picard_quadrature_1d(mlpicard.instantiate('linear-reaction', d=1), 0.0, [0.0],"
            " depth=2, nodes=8, time_cells=8, space_points=17)\n"
            "print('scipy.interpolate' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]

    def test_off_grid_query_point(self):
        prob = instantiate("linear-reaction", d=1)
        exact = closed_form(prob, 0.37, [0.83])
        ref = picard_quadrature_1d(prob, 0.37, [0.83])
        assert abs(ref.value - exact.value) <= 1e-5

    def test_preconditions(self):
        with pytest.raises(OracleError):
            picard_quadrature_1d(instantiate("heat-quadratic", d=2), 0.0, [0.0, 0.0])
        with pytest.raises(OracleError):
            picard_quadrature_1d(instantiate("scaled-bs"), 0.0, [1.0])
        with pytest.raises(ValueError):
            picard_quadrature_1d(instantiate("heat-quadratic"), 0.0, [0.0], nodes=4)


class TestCrossOracleConsistency:
    @pytest.mark.parametrize("name", ["heat-quadratic", "linear-reaction"])
    def test_closed_form_versus_quadrature(self, name):
        prob = instantiate(name, d=1)
        a = closed_form(prob, 0.0, [0.1])
        b = picard_quadrature_1d(prob, 0.0, [0.1])
        assert abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth + 1e-6


BUDGET = BaselineBudget(n=3, M=3, euler_steps=27, replications=16)


class TestMcBaseline:
    def test_agrees_with_closed_form_within_ci(self, tmp_path):
        prob = instantiate("heat-quadratic", d=1)
        ref = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=500, cache_path=str(tmp_path))
        exact = closed_form(prob, 0.0, [0.0])
        assert abs(ref.value - exact.value) <= ref.ci_halfwidth + 1e-6

    def test_progress_per_seed_block_and_per_seed_values(self, tmp_path, monkeypatch):
        # blocks of two seeds: (3, 3) has 255 tree paths per seed
        monkeypatch.setattr(mlp, "_BLOCK_PATHS", 600)
        prob = instantiate("linear-reaction", d=1)  # f(v) = v: every level path counts
        calls = []
        ref = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=503, cache_path=str(tmp_path),
                          progress=lambda done, total: calls.append((done, total)))
        reps = BUDGET.replications
        assert calls == [(done, reps) for done in range(2, reps + 1, 2)]
        with open(ref.diagnostics["path"], encoding="utf-8") as fh:
            entry = dict(line.split(" = ") for line in fh.read().splitlines())
        params = mlp.MlpParams(n=BUDGET.n, M=BUDGET.M, euler_steps=BUDGET.euler_steps)
        for r in range(reps):
            want = mlp.estimate(prob, dataclasses.replace(params, root_seed=503 + r), (0,), 0.0,
                                np.zeros(1))
            assert entry[f"rep_{r:04d}"] == f"{want.value:.17g}"

    def test_cache_reload_is_bit_identical(self, tmp_path):
        prob = instantiate("heat-quadratic", d=1)
        first = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=501, cache_path=str(tmp_path))
        assert first.diagnostics["cache_hit"] is False
        second = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=501, cache_path=str(tmp_path))
        assert second.diagnostics["cache_hit"] is True
        assert second.value == first.value
        assert second.ci_halfwidth == first.ci_halfwidth

    def test_distinct_queries_get_distinct_entries(self, tmp_path):
        prob = instantiate("heat-quadratic", d=1)
        a = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=501, cache_path=str(tmp_path))
        b = mc_baseline(prob, 0.0, [0.5], BUDGET, seed=501, cache_path=str(tmp_path))
        assert a.diagnostics["path"] != b.diagnostics["path"]
        assert "x=0.5" in problem_fingerprint(prob, 0.0, [0.5])

    def test_corrupted_cache_triggers_recompute(self, tmp_path):
        prob = instantiate("heat-quadratic", d=1)
        first = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=502, cache_path=str(tmp_path))
        path = first.diagnostics["path"]
        blob = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob.replace(b"value = ", b"value =  ", 1))
        again = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=502, cache_path=str(tmp_path))
        assert again.diagnostics["cache_hit"] is False
        assert again.value == first.value  # deterministic recompute

    @pytest.mark.parametrize("edit", [
        lambda ln: "estimator_version = older" if ln.startswith("estimator_version = ") else ln,
        lambda ln: None if ln.startswith("rng_algorithm = ") else ln,
    ], ids=["estimator-version-changed", "rng-algorithm-missing"])
    def test_version_mismatch_triggers_recompute(self, tmp_path, edit):
        # a checksum-clean entry from another estimator or RNG version is a miss
        prob = instantiate("heat-quadratic", d=1)
        first = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=505, cache_path=str(tmp_path))
        path = first.diagnostics["path"]
        lines = Path(path).read_text().rstrip("\n").split("\n")[:-1]
        assert f"estimator_version = {ESTIMATOR_VERSION}" in lines
        assert f"rng_algorithm = {RNG_ALGORITHM}" in lines
        oracle._write_cache(path, [ln for ln in map(edit, lines) if ln is not None])
        again = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=505, cache_path=str(tmp_path))
        assert again.diagnostics["cache_hit"] is False
        assert again.value == first.value
        entry = oracle._read_cache(path)
        assert entry["estimator_version"] == ESTIMATOR_VERSION
        assert entry["rng_algorithm"] == RNG_ALGORITHM

    def test_doubling_replications_tightens_interval(self, tmp_path):
        prob = instantiate("heat-quadratic", d=1)
        small = mc_baseline(prob, 0.0, [0.0],
                            BaselineBudget(n=2, M=2, euler_steps=4, replications=64),
                            seed=503, cache_path=str(tmp_path))
        large = mc_baseline(prob, 0.0, [0.0],
                            BaselineBudget(n=2, M=2, euler_steps=4, replications=128),
                            seed=503, cache_path=str(tmp_path))
        ratio = large.ci_halfwidth / small.ci_halfwidth
        assert 1.0 / math.sqrt(2.0) * 0.8 <= ratio <= 1.0 / math.sqrt(2.0) * 1.2

    def test_cache_file_is_flat_key_value_with_checksum(self, tmp_path):
        prob = instantiate("heat-quadratic", d=1)
        ref = mc_baseline(prob, 0.0, [0.0], BUDGET, seed=504, cache_path=str(tmp_path))
        lines = Path(ref.diagnostics["path"]).read_text().rstrip("\n").split("\n")
        assert lines[0] == "format = mlp-baseline-v1"
        assert lines[-1].startswith("checksum = ")
        assert any(ln.startswith("value = ") for ln in lines)
        assert sum(ln.startswith("rep_") for ln in lines) == BUDGET.replications

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            BaselineBudget(n=1, M=1, euler_steps=1, replications=1)


def test_shipped_baseline_entry_loads(baseline_cache_dir):
    # the repository ships the heavy nonlinear-coefficient baseline so the
    # acceptance run does not have to recompute it
    prob = instantiate("nonlinear-coeff-sine", d=1, kappa=0.5, lip_f=0.5)
    budget = BaselineBudget(n=5, M=5, euler_steps=512, replications=24)
    ref = mc_baseline(prob, 0.0, [0.0], budget, seed=777, cache_path=baseline_cache_dir)
    assert ref.diagnostics["cache_hit"] is True
    assert ref.ci_halfwidth < 0.1
    assert 2.0 < ref.value < 5.0
