"""Command-line exit codes and error reporting."""

import os

import pytest

from mlpicard.cli import main

HEAT_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "heat_quadratic_d1.cfg")


@pytest.mark.parametrize("override,message", [
    ("T=nan", "override T must be finite"),
    ("d=2.5", "invalid literal for int()"),
])
def test_validate_problem_bad_override_exits_2(capsys, override, message):
    assert main(["validate-problem", "heat-quadratic", "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid override: ")
    assert message in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_workers_below_one_exits_2(capsys, workers):
    assert main(["run", HEAT_CONFIG, "--workers", workers]) == 2
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["abc", "nan", "0", "-0.5", "2", "0.5,inf"])
def test_sweep_bad_eps_exits_2(capsys, eps):
    assert main(["sweep-epsilon", HEAT_CONFIG, "--eps", eps]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid --eps: ")
    assert err.count("\n") == 1
