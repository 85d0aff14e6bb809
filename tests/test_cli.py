"""Command-line exit codes and error reporting."""

import pytest

from mlpicard.cli import main


@pytest.mark.parametrize("override,message", [
    ("T=nan", "override T must be finite"),
    ("d=2.5", "invalid literal for int()"),
])
def test_validate_problem_bad_override_exits_2(capsys, override, message):
    assert main(["validate-problem", "heat-quadratic", "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid override: ")
    assert message in err
