"""Command-line exit codes and error reporting."""

import os
import re
from pathlib import Path

import pytest

from mlpicard import harness
from mlpicard.cli import main
from mlpicard.harness import parse_config, run_experiment

SMALL_HEAT = "problem = heat-quadratic\ndepths = 1, 2\nreplications = 4\n"
HEAT_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "heat_quadratic_d1.cfg")


@pytest.mark.parametrize("override,message", [
    ("T=nan", "override T must be finite"),
    ("d=2.5", "override d must be an integer, got '2.5'"),
    ("d=x", "override d must be a number, got 'x'"),
])
def test_validate_problem_bad_override_exits_2(capsys, override, message):
    assert main(["validate-problem", "heat-quadratic", "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid override: ")
    assert message in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_validate_problem_samples_below_one_exits_2(capsys, samples):
    assert main(["validate-problem", "heat-quadratic", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"invalid --samples: must be >= 1, got {samples}\n"
    assert captured.out == ""


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_workers_below_one_exits_2(capsys, workers):
    assert main(["run", HEAT_CONFIG, "--workers", workers]) == 2
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err


def test_run_workers_override_forks_and_matches_one_worker(capsys, monkeypatch, tmp_path):
    children = []
    start = harness._start_child
    monkeypatch.setattr(harness, "_start_child", lambda task: children.append(start(task))
                        or children[-1])
    monkeypatch.setenv("MLPICARD_OUTPUT_DIR", str(tmp_path / "two"))
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_HEAT)
    assert main(["run", str(config), "--workers", "2"]) == 0
    assert capsys.readouterr().err == ""
    assert [first for _, _, first in children] == [2]  # seeds 0, 1 | 2, 3
    cfg = parse_config(SMALL_HEAT)
    cfg.output_dir = str(tmp_path / "one")
    _, _, paths = run_experiment(cfg)
    for path in paths.values():
        assert (tmp_path / "two" / os.path.basename(path)).read_bytes() == \
            Path(path).read_bytes()


@pytest.mark.parametrize("extra, message", [("euler_steps = 0", "euler_steps must be >= 1"),
                                            ("d = 0", "override d must be a positive integer")])
def test_run_sizes_below_one_exit_2(capsys, monkeypatch, tmp_path, extra, message):
    monkeypatch.setenv("MLPICARD_OUTPUT_DIR", str(tmp_path))
    config = tmp_path / "small.cfg"
    config.write_text(f"problem = heat-quadratic\n{extra}\n")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and message in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["small.cfg"]


@pytest.mark.parametrize("extra, message", [
    ("depths = 200", "cost_recursion_bound = inf > 1e+12"),
    ("x0 = 1e200", "x0: bound parameter phi_x must be finite, got inf"),
])
def test_run_bound_past_the_float_range_exits_2(capsys, monkeypatch, tmp_path, extra, message):
    # rejected at parse time, before any depth runs
    monkeypatch.setenv("MLPICARD_OUTPUT_DIR", str(tmp_path))
    config = tmp_path / "far.cfg"
    config.write_text(f"problem = heat-quadratic\n{extra}\n")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and message in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["far.cfg"]


@pytest.mark.parametrize("eps", ["abc", "nan", "0", "-0.5", "2", "0.5,inf", "", " , "])
def test_sweep_bad_eps_exits_2(capsys, monkeypatch, tmp_path, eps):
    monkeypatch.setenv("MLPICARD_OUTPUT_DIR", str(tmp_path))
    assert main(["sweep-epsilon", HEAT_CONFIG, "--eps", eps]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid --eps: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [["run"], ["sweep-epsilon", "--eps", "0.5"]])
@pytest.mark.parametrize("config", ["missing.cfg", ".", "latin1.cfg"])
def test_unreadable_config_exits_2(capsys, monkeypatch, tmp_path, argv, config):
    monkeypatch.setenv("MLPICARD_OUTPUT_DIR", str(tmp_path))
    (tmp_path / "latin1.cfg").write_bytes("problem = heat-quadratic  # \xe9\n".encode("latin-1"))
    command, *options = argv
    assert main([command, str(tmp_path / config), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read config: ")
    assert err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["latin1.cfg"]


@pytest.mark.parametrize("argv", [["run"], ["sweep-epsilon", "--eps", "0.5"]])
@pytest.mark.parametrize("body, message", [
    pytest.param("problem = scaled-bs\nd = 2\nx0 = 1, 1\n",
                 "picard_quadrature_1d supports d = 1 only, got d = 2 for 'scaled-bs'",
                 id="scaled-bs-d2-auto"),
])
def test_config_without_a_reference_exits_2(capsys, monkeypatch, tmp_path, argv, body, message):
    # it used to end in an OracleError traceback with exit 1
    monkeypatch.setenv("MLPICARD_OUTPUT_DIR", str(tmp_path))
    config = tmp_path / "no_reference.cfg"
    config.write_text(body)
    command, *options = argv
    assert main([command, str(config), *options]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"no reference: {message}\n"
    assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["no_reference.cfg"]


@pytest.mark.parametrize("argv, written", [
    (["run", "CONFIG"], ["bounds.csv", "raw.csv", "results.csv"]),
    (["sweep-epsilon", "CONFIG", "--eps", "1.0"], ["sweep.csv"]),
    (["validate-problem", "heat-quadratic", "--samples", "200"], []),
], ids=["run", "sweep-epsilon", "validate-problem"])
def test_subcommand_succeeds_into_a_new_output_dir(capsys, monkeypatch, tmp_path, argv, written):
    out_dir = tmp_path / "new" / "out"
    monkeypatch.setenv("MLPICARD_OUTPUT_DIR", str(out_dir))
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_HEAT)
    assert main([str(config) if arg == "CONFIG" else arg for arg in argv]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(path.name for path in out_dir.glob("*")) == written
    if argv[0] == "run":
        cfg = parse_config(SMALL_HEAT)
        cfg.output_dir = str(tmp_path / "library")
        _, _, paths = run_experiment(cfg)
        for path in paths.values():
            assert (out_dir / os.path.basename(path)).read_bytes() == Path(path).read_bytes()


def test_readme_cli_block_names_exactly_the_parsed_subcommands(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    choices = re.search(r"\{([^}]*)\}", usage).group(1).split(",")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    names = re.findall(r"^mlpicard (\S+)", block, flags=re.MULTILINE)
    assert sorted(names) == sorted(choices)
