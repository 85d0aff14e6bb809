"""The package's public names: a change to ``__all__`` shows as a diff here,
and a name the README cites that the package no longer has fails here."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mlpicard

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "BoundParams",
    "CATALOGUE",
    "CostTally",
    "ESTIMATOR_VERSION",
    "Estimate",
    "MlpParams",
    "Problem",
    "RNG_ALGORITHM",
    "cost_recursion_bound",
    "error_bound",
    "estimate",
    "estimate_many",
    "gronwall_discrete",
    "gronwall_mlp",
    "instantiate",
    "lyapunov_check",
    "lyapunov_phi",
    "perturbation_bound",
    "stream_for",
    "total_cost_bound",
    "validate",
]


def test_all_is_the_pinned_list():
    assert sorted(mlpicard.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in mlpicard.__all__:
        assert getattr(mlpicard, name) is not None


def _readme_citations() -> list:
    """The dotted names in the README's inline code that start with
    ``mlpicard`` or one of its modules, once each; code blocks and file names
    such as ``rng.py`` are skipped."""
    modules = {info.name for info in pkgutil.iter_modules(mlpicard.__path__)}
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    cited = set()
    for span in re.findall(r"`([^`]+)`", text):
        if re.fullmatch(r"[\w./*-]+\.(py|csv|cfg|json|md|txt|toml)", span):
            continue
        name = re.match(r"(\w+)(\.\w+)+", span)
        if name and name.group(1) in modules | {"mlpicard"}:
            cited.add(name.group(0))
    return sorted(cited)


CITATIONS = _readme_citations()


def test_readme_citations_are_found():
    assert len(CITATIONS) >= 5, CITATIONS


@pytest.mark.parametrize("name", CITATIONS)
def test_readme_citation_resolves(name):
    for info in pkgutil.iter_modules(mlpicard.__path__):
        importlib.import_module(f"mlpicard.{info.name}")
    parts = name.split(".")
    target = mlpicard
    for part in parts[parts[0] == "mlpicard":]:
        assert hasattr(target, part), f"README cites `{name}`, which does not resolve"
        target = getattr(target, part)
