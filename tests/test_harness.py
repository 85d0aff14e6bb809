"""Config parsing, experiment orchestration, CSV contract, depth search."""

import math
import multiprocessing
import os
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from mlpicard import harness
from mlpicard.harness import (
    BOUNDS_HEADER,
    ConfigError,
    OUTPUT_DIR_ENV,
    RAW_HEADER,
    RESULTS_HEADER,
    SWEEP_HEADER,
    emit_csv,
    find_depth_for_epsilon,
    parse_config,
    resolve_reference,
    run_experiment,
    write_sweep_csv,
)
from mlpicard.mlp import cost_recursion_bound
from mlpicard.oracle import OracleError
from mlpicard.problems import instantiate

from helpers import read_csv

MINIMAL = "problem = heat-quadratic\n"
HEAT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "heat_quadratic_d1.cfg"


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.problem == "heat-quadratic"
        assert cfg.replications == 32
        assert cfg.cost_weights == (1.0, 1.0, 1.0, 1.0)
        assert cfg.euler_override is None  # path length defaults to M**M
        assert cfg.resolved_steps(3) == 27
        assert cfg.t0 == 0.0
        assert np.array_equal(cfg.query_point(), np.zeros(1))

    @pytest.mark.parametrize("name,params", [
        ("heat-quadratic", {"d": 3, "T": 0.5, "a": 2.0}),
        ("linear-reaction", {"d": 2, "T": 1.5, "a": 0.75}),
        ("nonlinear-coeff-sine",
         {"d": 2, "T": 0.5, "a": 3.0, "kappa": -0.25, "lip_f": 1.5, "source": -2.0}),
        ("scaled-bs",
         {"d": 4, "T": 2.0, "a": 1.5, "mu_bar": -0.1, "sigma_bar": 0.3, "lip_f": 2.0,
          "strike": 0.8}),
    ])
    def test_every_problem_parameter_is_a_config_key(self, name, params):
        assert params.keys() == instantiate(name).params.keys()
        text = f"problem = {name}\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
        problem = parse_config(text).build_problem()
        assert problem.params == params and type(problem.params["d"]) is int

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# top\nproblem = heat-quadratic  # tail\n\nd = 2\n")
        assert cfg.dimension == 2

    def test_hash_inside_a_value_is_kept(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        cfg = parse_config(MINIMAL + "output_dir = out/run#2\n")
        assert cfg.output_dir == "out/run#2"
        cfg = parse_config(MINIMAL + "output_dir = out/run#2\t# tail\n")
        assert cfg.output_dir == "out/run#2"

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "granularity = 9\n")
        assert "unknown key 'granularity'" in str(err.value)

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config("problem = heat-quadratic\nseed = 1\nseed = 2\n")
        assert "duplicate key 'seed' on lines 2 and 3" in str(err.value)

    def test_all_violations_reported_together(self):
        with pytest.raises(ConfigError) as err:
            parse_config("problem = heat-quadratic\nbogus = 1\nreplications = 1\n"
                         "seed = x\n")
        message = str(err.value)
        assert "unknown key 'bogus'" in message
        assert "replications must be >= 2" in message
        assert "invalid value 'x'" in message

    def test_deep_run_rejected_by_default_ceiling(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "depths = 9\n")
        bound = cost_recursion_bound(9, 9, 1, 9**9, (1.0, 1.0, 1.0, 1.0))
        assert f"{bound:.6g}" in str(err.value)
        # the same depth passes once the ceiling is raised
        cfg = parse_config(MINIMAL + "depths = 9\ncost_ceiling = 1e30\n")
        assert cfg.depths == [(9, 9)]

    @pytest.mark.parametrize("extra,depth", [
        ("depths = 200\n", "(200,200)"),                  # M**k past the float range
        ("depths = 1:400\n", "(1,400)"),                  # N = M**M past it
        (f"depths = 1\neuler_steps = {10**400}\n", "(1,1)"),
    ], ids=["M**k", "N=M**M", "N*d"])
    def test_bound_past_the_float_range_trips_the_ceiling(self, extra, depth):
        # the bound is inf there, where it used to raise OverflowError
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + extra)
        assert err.value.violations == [
            f"depth {depth} exceeds the cost ceiling: cost_recursion_bound = inf > 1e+12"]

    def test_deep_single_base_depth_rejected_at_once(self):
        # the cost recursion stops at its first inf depth, about 1000 here
        start = time.perf_counter()
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "depths = 100000:1\n")
        assert time.perf_counter() - start < 5.0
        assert err.value.violations == [
            "depth (100000,1) exceeds the cost ceiling: cost_recursion_bound = inf > 1e+12"]

    @pytest.mark.parametrize("depths", ["1:2000000", "99999999999999999999"])
    def test_huge_base_rejected_without_building_its_path_length(self, depths):
        # N = M**M is past the float range, so the bound is inf
        start = time.perf_counter()
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"depths = {depths}\n")
        assert time.perf_counter() - start < 1.0
        n, _, M = depths.partition(":")
        assert err.value.violations == [f"depth ({n},{M or n}) exceeds the cost ceiling: "
                                         "cost_recursion_bound = inf > 1e+12"]

    @pytest.mark.parametrize("text, violations", [
        (MINIMAL + "x0 = a,b\n", ["line 2: x0 must be a comma-separated float list"]),
        (MINIMAL + "depths = 1, x, 3\n", ["line 2: depth entry 'x' is not 'n' or 'n:M'"]),
        (MINIMAL + "depths = 2:3:4\n", ["line 2: depth entry '2:3:4' is not 'n' or 'n:M'"]),
        (MINIMAL + "cost_weights = 1, 1, 1\n", ["line 2: cost_weights needs exactly 4 values"]),
        (MINIMAL + "cost_weights = 1, 1, x, 1\n", ["line 2: cost_weights must be floats"]),
        (MINIMAL + "depths\n", ["line 2: expected 'key = value', got 'depths'"]),
        ("depths = 1\n", ["missing required key 'problem'"]),
        (MINIMAL + "depths = ,\n", ["depths must contain at least one entry"]),
        (MINIMAL + "depths = 1:0, -1\n", ["depth (1,0) violates n >= 0, M >= 1",
                                          "depth (-1,-1) violates n >= 0, M >= 1"]),
    ], ids=["x0", "depth-entry", "depth-triple", "weights-length", "weights-float",
            "no-equals", "no-problem", "depths-empty", "depths-below-range"])
    def test_malformed_value_messages(self, text, violations):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == violations

    @pytest.mark.parametrize("ceiling", ["nan", "inf"])
    def test_non_finite_cost_ceiling_rejected(self, ceiling):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"depths = 9\ncost_ceiling = {ceiling}\n")
        assert "cost_ceiling must be finite" in str(err.value)

    @pytest.mark.parametrize("t0", ["nan", "-0.1", "3.0"])
    def test_t0_outside_horizon_rejected(self, t0):
        # T = 2 is configured; 3.0 is T + 1
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"T = 2.0\nt0 = {t0}\n")
        assert "t0 must be finite and lie in [0, T] with T = 2" in str(err.value)
        assert parse_config(MINIMAL + "T = 2.0\nt0 = 2.0\n").t0 == 2.0

    def test_x0_dimension_checked(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "d = 2\nx0 = 0.0\n")
        assert "x0 has dimension 1" in str(err.value)
        cfg = parse_config(MINIMAL + "d = 2\nx0 = 0.0, 0.5\n")
        assert np.array_equal(cfg.query_point(), [0.0, 0.5])

    def test_depth_pairs(self):
        cfg = parse_config(MINIMAL + "depths = 1, 2:3, 4\n")
        assert cfg.depths == [(1, 1), (2, 3), (4, 4)]

    @pytest.mark.parametrize("key", ["reference_n", "reference_m", "reference_steps",
                                     "reference_replications", "reference_seed", "cache_dir",
                                     "reference"])
    def test_removed_reference_budget_key_is_unknown(self, key):
        # the six keys of the removed mc-baseline route, and the route choice
        # itself: the reference is the problem's solution, else the quadrature
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"{key} = 1\n")
        assert err.value.violations == [f"line 2: unknown key {key!r}"]

    @pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs")
                                            .glob("*.cfg")), ids=lambda path: path.name)
    def test_every_shipped_config_parses(self, path):
        cfg = parse_config(path.read_text(encoding="utf-8"))
        assert cfg.build_problem().name == cfg.problem

    def test_problem_override_errors_surface(self):
        with pytest.raises(ConfigError) as err:
            parse_config("problem = heat-quadratic\nkappa = 0.5\n")
        assert "does not accept override" in str(err.value)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"workers = {workers}\n")
        assert err.value.violations == [f"workers must be >= 1, got {workers}"]

    @pytest.mark.parametrize("extra, violations", [
        ("euler_steps = 0\n", ["euler_steps must be >= 1, got 0"]),
        ("euler_steps = -3\ndepths = 9\n", ["euler_steps must be >= 1, got -3"]),
        ("d = 0\n", ["problem: override d must be a positive integer"]),
        ("d = -1\neuler_steps = 0\n", ["euler_steps must be >= 1, got 0",
                                        "problem: override d must be a positive integer"]),
    ])
    def test_sizes_below_one_reported_not_raised(self, extra, violations):
        # the cost-ceiling check is skipped: the cost recursion bound raises
        # a bare ValueError on d < 1 or N < 1
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + extra)
        assert err.value.violations == violations

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_max_depth_below_one_rejected(self, max_depth):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"max_depth = {max_depth}\n")
        assert err.value.violations == [f"max_depth must be >= 1, got {max_depth}"]
        assert parse_config(MINIMAL + "max_depth = 1\n").max_depth == 1

    @pytest.mark.parametrize("x0,violation", [
        *((x0, f"x0 entries must be finite, got [{float(x0)}]") for x0 in ["nan", "inf", "-inf"]),
        # finite, but its Lyapunov weight 2a + 2 x0^2, read by every error bound, is not
        ("1e200", "x0: bound parameter phi_x must be finite, got inf"),
    ])
    def test_non_finite_x0_rejected(self, x0, violation):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"x0 = {x0}\n")
        assert err.value.violations == [violation]
        assert parse_config(MINIMAL + "x0 = 1e150\n").x0.tolist() == [1e150]

    @pytest.mark.parametrize("weights", ["nan,1,1,1", "1,inf,1,1", "1,1,-1,1", "1,1,1,-inf",
                                         "0,0,0,0"])
    def test_bad_cost_weights_rejected(self, weights):
        # with depths = 9, NaN or all-zero weights used to pass the cost ceiling
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"depths = 9\ncost_weights = {weights}\n")
        got = tuple(float(w) for w in weights.split(","))
        assert err.value.violations == [
            f"cost_weights must be finite, >= 0 and not all 0, got {got}"]

    def test_output_dir_environment_override(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/tmp/forced-out")
        cfg = parse_config(MINIMAL + "output_dir = ignored\n")
        assert cfg.output_dir == "/tmp/forced-out"


class TestResolveReference:
    def test_auto_picks_closed_form_then_picard(self, monkeypatch):
        cfg = parse_config(MINIMAL)
        assert resolve_reference(cfg, cfg.build_problem()).method == "closed_form"
        calls = []
        monkeypatch.setattr(harness, "picard_quadrature_1d",
                            lambda problem, t, x: calls.append((problem.name, t, list(x))))
        for text in ("problem = nonlinear-coeff-sine\nkappa = 0\nx0 = 0.5\n",
                     "problem = nonlinear-coeff-sine\nkappa = 0.5\nx0 = 0.5\n",
                     "problem = scaled-bs\nx0 = 0.5\n"):
            cfg = parse_config(text)
            resolve_reference(cfg, cfg.build_problem())
        assert calls == [("nonlinear-coeff-sine", 0.0, [0.5]), ("nonlinear-coeff-sine", 0.0, [0.5]),
                         ("scaled-bs", 0.0, [0.5])]

    @pytest.mark.parametrize("text", ["problem = nonlinear-coeff-sine\nd = 2\nkappa = 0.5\n",
                                      "problem = scaled-bs\nd = 2\n"])
    def test_auto_without_a_closed_form_needs_d_1(self, text):
        cfg = parse_config(text)
        with pytest.raises(OracleError, match="supports d = 1 only, got d = 2"):
            resolve_reference(cfg, cfg.build_problem())


@pytest.mark.parametrize("header", [RESULTS_HEADER, RAW_HEADER, BOUNDS_HEADER, SWEEP_HEADER])
def test_readme_outputs_quote_each_csv_header(header):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    outputs = readme.split("### Outputs", 1)[1].split("\n## ", 1)[0]
    assert f"`{','.join(header)}`" in outputs


def test_readme_config_table_names_exactly_the_parsed_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    names = [name for line in table.splitlines() if line.startswith("| `")
             for name in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(names) == sorted(harness._KEYS)


class TestEmitCsv:
    def test_empty_rows_yield_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_csv(["a", "b"], [], path)
        assert Path(path).read_bytes() == b"a,b\n"

    def test_roundtrip_reproduces_rows(self, tmp_path):
        path = str(tmp_path / "rt.csv")
        rows = [[3, math.pi, "tag"], [4, 1.0 / 3.0, "x"]]
        emit_csv(["i", "v", "s"], rows, path)
        header, back = read_csv(path)
        assert header == ["i", "v", "s"]
        assert int(back[0][0]) == 3
        assert float(back[0][1]) == math.pi  # 17 significant digits round-trip
        assert float(back[1][1]) == 1.0 / 3.0

    def test_lf_line_endings(self, tmp_path):
        path = str(tmp_path / "lf.csv")
        emit_csv(["a"], [[1.5]], path)
        blob = Path(path).read_bytes()
        assert b"\r" not in blob and blob.endswith(b"\n")

    def test_identical_rows_identical_bytes(self, tmp_path):
        rows = [[1, 0.1, "r"]]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit_csv(["a", "b", "c"], rows, p1)
        emit_csv(["a", "b", "c"], rows, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


def _tiny_config(tmp_path, extra="", reps=8, depths="1, 2"):
    return parse_config(
        "problem = heat-quadratic\n"
        f"depths = {depths}\n"
        f"replications = {reps}\n"
        "seed = 42\n"
        f"output_dir = {tmp_path}\n" + extra
    )


class TestRunExperiment:
    def test_every_depth_exactly_once_and_invariants(self, tmp_path):
        cfg = _tiny_config(tmp_path / "a")
        rows, reference, paths = run_experiment(cfg)
        assert [(r.n, r.M) for r in rows] == [(1, 1), (2, 2)]
        assert reference.value == 1.0
        for row in rows:
            assert row.rmse_vs_reference >= 0.0
            assert row.tallied_cost <= row.cost_recursion_bound
            assert row.rmse_vs_reference <= row.theoretical_error_bound
        header, body = read_csv(paths["results"])
        assert len(body) == 2 and header[0] == "n"

    @pytest.mark.parametrize("T", [1.25, 3.0])
    def test_horizon_past_the_float_range_of_the_bound(self, tmp_path, T):
        # exp(9 c^3 T) overflows once T > 1.2323 at c = 4: the bound reads inf
        cfg = parse_config(MINIMAL + f"T = {T}\ndepths = 1, 2\nreplications = 4\n"
                           f"output_dir = {tmp_path}\n")
        rows, _, paths = run_experiment(cfg)
        assert [row.theoretical_error_bound for row in rows] == [math.inf, math.inf]
        for key, column in (("results", "theoretical_error_bound"), ("bounds", "error_bound")):
            header, body = read_csv(paths[key])
            assert [line[header.index(column)] for line in body] == ["inf", "inf"]

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        blobs = {}
        for tag, extra in [("one", "workers = 1\n"), ("two", "workers = 2\n"),
                           ("re", "workers = 1\n")]:
            cfg = _tiny_config(tmp_path / tag, extra)
            _, _, paths = run_experiment(cfg)
            blobs[tag] = tuple(Path(paths[k]).read_bytes()
                               for k in ("results", "raw", "bounds"))
        assert blobs["one"] == blobs["two"] == blobs["re"]

    def test_byte_identical_across_seed_blocks(self, tmp_path):
        # 5 replications: uneven blocks at 2 and 3 workers, more workers than seeds at 8
        blobs = {}
        for workers in (1, 2, 3, 8):
            cfg = parse_config(
                "problem = linear-reaction\ndepths = 1, 2, 3\nreplications = 5\n"
                f"seed = 42\nworkers = {workers}\noutput_dir = {tmp_path / str(workers)}\n")
            _, _, paths = run_experiment(cfg)
            blobs[workers] = tuple(Path(paths[k]).read_bytes()
                                   for k in ("results", "raw", "bounds"))
        assert blobs[1] == blobs[2] == blobs[3] == blobs[8]

    def test_raw_csv_has_one_row_per_replication(self, tmp_path):
        cfg = _tiny_config(tmp_path / "raw")
        _, _, paths = run_experiment(cfg)
        _, body = read_csv(paths["raw"])
        assert len(body) == 2 * 8
        seeds = sorted(int(r[3]) for r in body[:8])
        assert seeds == list(range(42, 50))

    def test_depths_set_after_parsing_meet_the_cost_ceiling(self, tmp_path, monkeypatch,
                                                            started):
        # parse_config would have rejected (6, 6); run_experiment does so too,
        # before it evaluates a block, starts a child or writes a CSV
        with open(HEAT_CONFIG, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        cfg.depths, cfg.workers, cfg.output_dir = [(6, 6)], 2, str(tmp_path)

        def evaluate_block(task):
            raise AssertionError("a seed block ran")

        monkeypatch.setattr(harness, "_evaluate_block", evaluate_block)
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg)
        assert err.value.violations == [
            "depth (6,6) exceeds the cost ceiling: cost_recursion_bound = 3.40745e+11 > 1e+09"]
        assert started == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("search", [False, True])
    @pytest.mark.parametrize("edit, violation", [
        ({"replications": 1}, "replications must be >= 2 (standard errors need variance), got 1"),
        ({"x0": np.zeros(2)}, "x0 has dimension 2, problem has d = 1"),
        ({"depths": [(1, 0)]}, "depth (1,0) violates n >= 0, M >= 1"),
    ], ids=["replications", "x0", "depths"])
    def test_config_edited_after_parsing_is_validated_in_full(self, tmp_path, monkeypatch,
                                                              started, search, edit, violation):
        # each of these used to run (replications = 1 wrote value_se = 0) or
        # fail deep inside the estimator; both entry points reject them before
        # any block runs, as parse_config would
        with open(HEAT_CONFIG, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        cfg.workers, cfg.output_dir = 2, str(tmp_path)
        for name, value in edit.items():
            setattr(cfg, name, value)

        def evaluate_block(task):
            raise AssertionError("a seed block ran")

        monkeypatch.setattr(harness, "_evaluate_block", evaluate_block)
        with pytest.raises(ConfigError) as err:
            find_depth_for_epsilon(cfg, 1.0) if search else run_experiment(cfg)
        assert err.value.violations == [violation]
        assert started == [] and list(tmp_path.iterdir()) == []

    def test_rmse_decreases_on_richer_depths(self, tmp_path):
        cfg = parse_config(
            "problem = heat-quadratic\ndepths = 1, 3\nreplications = 16\n"
            f"seed = 7\noutput_dir = {tmp_path / 'dec'}\n")
        rows, _, _ = run_experiment(cfg)
        assert rows[1].rmse_vs_reference < rows[0].rmse_vs_reference


_EVALUATE_BLOCK = harness._evaluate_block


def _fail_after_first_block(task):
    """Stands in for ``harness._evaluate_block`` in forked children too: every
    block but the one that starts at seed 42 fails."""
    seeds = task[3]
    if seeds[0] != 42:
        raise RuntimeError(f"block of seeds {seeds} failed")
    return _EVALUATE_BLOCK(task)


def _exit_after_first_block(task):
    """Every block but the one that starts at seed 42 exits its process
    without a result."""
    if task[3][0] != 42:
        os._exit(1)
    return _EVALUATE_BLOCK(task)


def _fail_first_block(task):
    """The calling process's block (seed 42 on) fails at once; every other
    block sleeps far longer than the test may take before it evaluates."""
    if task[3][0] == 42:
        raise RuntimeError("the calling process's block failed")
    time.sleep(60)
    return _EVALUATE_BLOCK(task)


@pytest.fixture
def started(monkeypatch):
    """The ``(process, receiving end, first seed)`` of every child that
    ``harness._start_child`` starts while the test runs."""
    children = []
    start = harness._start_child

    def record(task):
        children.append(start(task))
        return children[-1]

    monkeypatch.setattr(harness, "_start_child", record)
    return children


def _all_joined(children) -> bool:
    return multiprocessing.active_children() == [] and all(
        child.exitcode is not None for child, _, _ in children)


class TestDispatch:
    CONFIG = "problem = linear-reaction\ndepths = 1, 2, 3\nreplications = 5\nseed = 42\n"

    def _cfg(self, tmp_path, tag, workers):
        return parse_config(self.CONFIG + f"workers = {workers}\noutput_dir = {tmp_path / tag}\n")

    def _run(self, tmp_path, tag, workers):
        _, _, paths = run_experiment(self._cfg(tmp_path, tag, workers))
        return tuple(Path(paths[k]).read_bytes() for k in ("results", "raw", "bounds"))

    def test_one_child_per_extra_block(self, tmp_path, started):
        real = self._run(tmp_path, "real", 1)
        assert started == []  # workers = 1 starts no child
        assert self._run(tmp_path, "three", 3) == real
        # 5 seeds in 3 blocks: 42 | 43, 44 | 45, 46, one run for every depth
        assert [first for _, _, first in started] == [43, 45]
        assert _all_joined(started)
        assert [child.exitcode for child, _, _ in started] == [0, 0]

    @pytest.mark.parametrize("search", [False, True])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_before_any_block(self, tmp_path, monkeypatch, started,
                                                         search, workers):
        # a worker count set after parsing; it used to raise ZeroDivisionError
        # (0) or IndexError (-1)
        cfg = self._cfg(tmp_path, "w", 1)
        cfg.workers = workers
        monkeypatch.setattr(harness, "_evaluate_block", _fail_first_block)
        with pytest.raises(ConfigError) as err:
            find_depth_for_epsilon(cfg, 1.0) if search else run_experiment(cfg)
        assert err.value.violations == [f"workers must be >= 1, got {workers}"]
        assert started == [] and not (tmp_path / "w").exists()

    @pytest.mark.parametrize("search", [False, True])
    def test_child_block_error_propagates_and_child_is_joined(self, tmp_path, monkeypatch,
                                                              started, search):
        monkeypatch.setattr(harness, "_evaluate_block", _fail_after_first_block)
        cfg = self._cfg(tmp_path, "err", 3)
        with pytest.raises(RuntimeError, match=r"seeds \[43, 44\] failed") as err:
            find_depth_for_epsilon(cfg, 1.0) if search else run_experiment(cfg)
        assert len(started) == 2 and _all_joined(started)
        # the child's own traceback comes along
        assert "_fail_after_first_block" in str(err.value.__cause__)

    def test_child_that_exits_without_a_result_is_named_and_joined(self, tmp_path, monkeypatch,
                                                                   started):
        monkeypatch.setattr(harness, "_evaluate_block", _exit_after_first_block)
        message = "seed block starting at seed 43 exited with code 1 without sending a result"
        with pytest.raises(RuntimeError, match=message):
            self._run(tmp_path, "exit", 3)
        assert len(started) == 2 and _all_joined(started)

    @pytest.mark.parametrize("search", [False, True])
    def test_own_block_error_terminates_and_joins_children(self, tmp_path, monkeypatch,
                                                            started, search):
        monkeypatch.setattr(harness, "_evaluate_block", _fail_first_block)
        cfg = self._cfg(tmp_path, "own", 3)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="the calling process's block failed"):
            find_depth_for_epsilon(cfg, 1.0) if search else run_experiment(cfg)
        assert time.monotonic() - start < 30  # the sleeping children did not run out
        assert len(started) == 2 and _all_joined(started)
        assert [child.exitcode for child, _, _ in started] == [-signal.SIGTERM] * 2


class TestDepthSearch:
    def test_loose_target_met_at_depth_one(self, tmp_path):
        cfg = _tiny_config(tmp_path / "eps1", reps=16)
        sweep, _ = find_depth_for_epsilon(cfg, 1.0)
        row = sweep[0]
        assert row.status == "ok"
        assert 1 <= row.n_star <= 3
        assert row.rmse_plus_2se < 1.0
        assert row.cost_sum > 0
        assert row.cost_times_eps_power == pytest.approx(row.cost_sum)

    def test_ceiling_failure_is_explicit(self, tmp_path):
        # depth 1 passes the ceiling (bound 8), depth 2 trips it (bound 182)
        cfg = _tiny_config(tmp_path / "eps2", "cost_ceiling = 100\n", depths="1")
        sweep, _ = find_depth_for_epsilon(cfg, 0.01)
        row = sweep[0]
        assert row.status == "cost-ceiling"
        assert row.n_star == -1
        assert row.tripped_bound > 100
        assert math.isnan(row.cost_sum)

    def test_depth_cap_failure(self, tmp_path):
        cfg = _tiny_config(tmp_path / "eps3", "max_depth = 1\n")
        sweep, _ = find_depth_for_epsilon(cfg, 0.001)
        assert sweep[0].status == "max-depth"

    def test_shared_depth_table_across_targets(self, tmp_path):
        cfg = _tiny_config(tmp_path / "eps4", reps=16)
        sweep, _ = find_depth_for_epsilon(cfg, [1.0, 0.9])
        assert sweep[0].depth_rows and sweep[1].depth_rows
        # identical depth-1 statistics reused for both targets
        assert sweep[0].depth_rows[0].rmse_vs_reference == \
            sweep[1].depth_rows[0].rmse_vs_reference

    def test_sweep_csv_byte_identical_across_workers(self, tmp_path, started):
        def sweep_bytes(tag, workers):
            cfg = _tiny_config(tmp_path / tag, f"workers = {workers}\n", reps=16)
            sweep, _ = find_depth_for_epsilon(cfg, [1.0, 0.5])
            path = tmp_path / f"{tag}.csv"
            write_sweep_csv(sweep, str(path))
            return path.read_bytes(), len(sweep[-1].depth_rows)

        one, depths = sweep_bytes("one", 1)
        assert started == []
        # each depth run cuts its replications into two blocks and starts
        # one child for the second, joined before the scan goes on
        assert sweep_bytes("two", 2)[0] == one
        assert [first for _, _, first in started] == [50] * depths
        assert _all_joined(started)
