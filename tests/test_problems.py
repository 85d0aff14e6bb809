"""Catalogue construction, overrides, and hypothesis spot checks."""

import dataclasses
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from mlpicard.problems import (
    BETA,
    CATALOGUE,
    PARAMETERS,
    C,
    P,
    Problem,
    ProblemError,
    instantiate,
    validate,
)

from helpers import rotated_sine


def test_heat_quadratic_has_no_reaction_term():
    prob = instantiate("heat-quadratic", d=1, T=1.0)
    t = np.zeros(4)
    x = np.ones((4, 1))
    v = np.linspace(-2, 2, 4)
    assert np.array_equal(prob.nonlinearity(t, x, v), np.zeros(4))


def test_sine_with_zero_kappa_degenerates_to_constant_coefficients():
    prob = instantiate("nonlinear-coeff-sine", kappa=0.0)
    x = np.array([[0.3], [-1.2]])
    assert np.array_equal(prob.drift(x), np.zeros_like(x))
    np.testing.assert_array_equal(prob.diffusion(x, np.ones_like(x)), np.ones_like(x))


def test_sine_with_nonzero_kappa_is_genuinely_state_dependent():
    prob = instantiate("nonlinear-coeff-sine", kappa=0.5)
    x = np.array([[0.3, -0.4]]) if prob.d == 2 else np.array([[0.3]])
    assert prob.drift(x)[0, 0] == pytest.approx(0.5 * np.sin(0.3))
    assert prob.diffusion(x, np.ones_like(x))[0, 0] == pytest.approx(1.0 + 0.5 * np.cos(0.3))


def test_unknown_name_rejected():
    with pytest.raises(ProblemError):
        instantiate("viscous-burgers")


def test_unknown_override_rejected():
    with pytest.raises(ProblemError):
        instantiate("heat-quadratic", viscosity=0.1)


def test_invalid_override_values_rejected():
    with pytest.raises(ProblemError):
        instantiate("heat-quadratic", d=0)
    with pytest.raises(ProblemError):
        instantiate("heat-quadratic", T=-1.0)
    with pytest.raises(ProblemError):
        instantiate("nonlinear-coeff-sine", kappa=3.0)


@pytest.mark.parametrize("name,overrides", [
    ("heat-quadratic", {"T": float("nan")}),
    ("heat-quadratic", {"T": float("inf")}),
    ("heat-quadratic", {"d": float("nan")}),
    ("nonlinear-coeff-sine", {"kappa": float("nan")}),
    ("scaled-bs", {"strike": float("-inf")}),
])
def test_non_finite_override_rejected(name, overrides):
    with pytest.raises(ProblemError, match="must be finite"):
        instantiate(name, **overrides)


@pytest.mark.parametrize("name,key,value", [
    ("heat-quadratic", "d", None),
    ("nonlinear-coeff-sine", "kappa", None),
    ("heat-quadratic", "d", "x"),
    ("heat-quadratic", "T", "abc"),
    # float(True) is 1.0: a bool must not pass for a float parameter
    ("heat-quadratic", "T", True),
    ("nonlinear-coeff-sine", "kappa", False),
    ("scaled-bs", "strike", np.True_),
])
def test_non_number_override_is_named(name, key, value):
    with pytest.raises(ProblemError, match=re.escape(f"override {key} must be a number, got {value!r}")):
        instantiate(name, **{key: value})


@pytest.mark.parametrize("d", [2.5, 2.0, True, np.float64(3.0), "2.5"])
def test_non_integer_dimension_rejected(d):
    with pytest.raises(ProblemError, match=re.escape(f"must be an integer, got {d!r}")):
        instantiate("heat-quadratic", d=d)


@pytest.mark.parametrize("d", [2, np.int64(2), "2"])
def test_integer_dimension_accepted(d):
    prob = instantiate("heat-quadratic", d=d)
    assert prob.d == 2 and type(prob.d) is int


@pytest.mark.parametrize("d", [2.5, True])
def test_problem_rejects_non_integer_dimension(d):
    with pytest.raises(ProblemError, match=re.escape(f"require integer d, got {d!r}")):
        dataclasses.replace(instantiate("heat-quadratic"), d=d)


@pytest.mark.parametrize("name", ["T", "growth_b", "lyapunov_a"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_constant_rejected(name, value):
    with pytest.raises(ProblemError, match=f"finite {name}"):
        dataclasses.replace(instantiate("heat-quadratic"), **{name: value})


@pytest.mark.parametrize("box", [float("nan"), float("inf"), -1.0, 0.0])
def test_bad_box_rejected(box):
    with pytest.raises(ValueError, match="box_halfwidth must be finite and > 0"):
        validate(instantiate("heat-quadratic"), samples=10, seed=0, box_halfwidth=box)


def test_linear_reaction_d10_spot_checks():
    prob = instantiate("linear-reaction", d=10)
    report = validate(prob, samples=1000, seed=321)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("name", CATALOGUE)
def test_catalogue_passes_hypothesis_checks(name):
    prob = instantiate(name)
    report = validate(prob, samples=10_000, seed=20240)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("name,overrides", [
    ("heat-quadratic", {"d": 10}),
    ("linear-reaction", {"d": 4, "T": 2.0}),
    ("nonlinear-coeff-sine", {"kappa": 0.9, "lip_f": 1.5}),
    ("scaled-bs", {"sigma_bar": 0.8, "mu_bar": -0.2}),
])
def test_override_variants_pass_hypothesis_checks(name, overrides):
    prob = instantiate(name, **overrides)
    report = validate(prob, samples=5_000, seed=99)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("name,overrides", [
    ("scaled-bs", {"mu_bar": 4.0, "sigma_bar": -4.0, "lip_f": 4.0}),
    ("nonlinear-coeff-sine", {"d": 3, "kappa": -2.0, "lip_f": 4.0}),
])
def test_builder_guard_edge_passes_hypothesis_checks(name, overrides):
    # the builders cap their Lipschitz constants at C; the cap itself is admissible
    report = validate(instantiate(name, **overrides), samples=10_000, seed=20240)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("name,overrides", [
    ("scaled-bs", {"sigma_bar": 4.01}),
    ("scaled-bs", {"lip_f": 4.01}),
    ("nonlinear-coeff-sine", {"lip_f": 4.01}),
    ("nonlinear-coeff-sine", {"lip_f": -0.5}),
])
def test_builder_guard_rejects_past_the_edge(name, overrides):
    with pytest.raises(ProblemError, match=f"^{name} requires"):
        instantiate(name, **overrides)


@pytest.mark.parametrize("samples", [2.5, True, "10", None])
def test_validate_rejects_non_integer_samples(samples):
    with pytest.raises(TypeError, match="^" + re.escape(f"samples must be an integer, got {samples!r}")):
        validate(instantiate("heat-quadratic"), samples, 0)


def test_rotated_sigma_passes_hypothesis_checks():
    # sigma(x) = Q diag(1 + kappa cos(Q^T x)) Q^T, neither diagonal nor affine
    report = validate(rotated_sine(10)[0], samples=10_000, seed=20240)
    assert report.passed, report.violations[:3]


def test_validate_reads_every_column_of_sigma():
    # sigma = [[1 + a, -a], [0, 1]] with a = 5 sin x_0 has the constant row
    # sums sigma 1 = (1, 1), so only a probe of each column sees that it is
    # not 4-Lipschitz
    heat = instantiate("heat-quadratic", d=2)
    first = np.array([1.0, 0.0])
    skewed = dataclasses.replace(heat, diffusion=lambda x, dw: (
        dw + 5.0 * np.sin(x[..., :1]) * (dw[..., :1] - dw[..., 1:]) * first))
    report = validate(skewed, samples=2000, seed=7)
    assert report.violations
    assert {v.inequality for v in report.violations} == {"diffusion-lipschitz"}
    constant = dataclasses.replace(skewed, diffusion=lambda x, dw: dw)
    assert validate(constant, samples=2000, seed=7).passed


def test_benchmark_tracer_wraps_problem_fields():
    # perfbench/tracer.py replaces these Problem fields by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    fields = {f.name for f in dataclasses.fields(Problem)}
    assert set(tracer.PROBLEM_CALLABLES) <= fields


def test_broken_constant_is_reported_not_raised():
    prob = instantiate("nonlinear-coeff-sine", kappa=0.5)
    broken = dataclasses.replace(prob, growth_b=1.0)  # too small for the growth of g
    report = validate(broken, samples=2000, seed=7)
    assert not report.passed
    first = report.violations[0]
    assert first.lhs > first.rhs
    assert "x" in first.witness


def test_zero_reaction_reduces_growth_check_to_terminal():
    prob = instantiate("heat-quadratic", d=2)
    t = np.linspace(0, prob.T, 8)
    x = np.random.default_rng(0).uniform(-2, 2, size=(8, 2))
    f0 = prob.nonlinearity(t, x, np.zeros(8))
    assert np.array_equal(f0, np.zeros(8))


def test_phi_and_bound_params():
    prob = instantiate("heat-quadratic", d=2)
    assert prob.phi(np.zeros(2)) == 2.0
    bp = prob.bound_params(np.array([1.0, 1.0]))
    assert bp.phi_x == pytest.approx(2.0 + 4.0)
    assert bp.c == C and bp.T == prob.T
    assert (bp.beta, bp.p) == (BETA, P)


def test_growth_constant_scales_with_dimension():
    b1 = instantiate("heat-quadratic", d=1).growth_b
    b10 = instantiate("heat-quadratic", d=10).growth_b
    assert b10 > b1 >= 1.0


def test_readme_lists_the_catalogue_and_its_parameters():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    override_row = next(line for line in readme.splitlines() if "| problem overrides" in line)
    assert re.findall(r"`(\w+)`", override_row.split("|")[1]) == list(PARAMETERS)
    table = readme.split("## Problem catalogue", 1)[1].split("\n\n")[1].splitlines()
    assert [re.match(r"\| `([\w-]+)` \|", row).group(1) for row in table[2:]] == list(CATALOGUE)


@pytest.mark.parametrize("name", [name for name in CATALOGUE
                                  if instantiate(name).solution is not None])
def test_solution_solves_the_pde(name):
    # central differences of u_t + mu . grad u + 1/2 tr(sigma sigma^T Hess u) + f(t, x, u);
    # the trace is the sum of second differences along sigma's columns sigma e_j
    prob = instantiate(name, d=3)
    u, h = prob.solution, 1e-4
    steps = np.eye(3) * h
    rng = np.random.default_rng(11)
    for t, x in zip(rng.uniform(0.1, 0.9, 20), rng.uniform(-2.0, 2.0, (20, 3))):
        value = u(t, x)
        forward = np.array([u(t, x + step) for step in steps])
        backward = np.array([u(t, x - step) for step in steps])
        columns = prob.diffusion(x, steps)
        second = sum(u(t, x + col) - 2 * value + u(t, x - col) for col in columns)
        residual = ((u(t + h, x) - u(t - h, x)) / (2 * h)
                    + np.broadcast_to(prob.drift(x), x.shape) @ (forward - backward) / (2 * h)
                    + 0.5 * second / h**2
                    + float(prob.nonlinearity(t, x, value)))
        assert abs(residual) <= 1e-5 * max(1.0, abs(value)), (t, x, residual)
