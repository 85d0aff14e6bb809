"""Reference oracles: closed forms and the quadrature fixed point."""

import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mlpicard import oracle
from mlpicard.mlp import MlpParams, estimate_many
from mlpicard.oracle import (
    OracleError,
    _picard_solve,
    closed_form,
    picard_quadrature_1d,
    problem_fingerprint,
)
from mlpicard.problems import CATALOGUE, instantiate

# Each catalogue problem's fingerprint at its defaults and (t, x) = (0, 0).
# Every provenance string depends on it.
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


def test_oracle_imports_nothing_from_the_estimator():
    # a referee that shares the estimator's code would share its faults
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert package == {"problems"}


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
    (True, [0.0], TypeError, "t must be a number"),
    (1.5, [0.0], ValueError, "t must lie in"),
])
def test_picard_quadrature_checks_the_query_point(t, x, error, message, recwarn):
    # it used to read x[0] of the first and warn from np.linspace on the second
    with pytest.raises(error, match=message):
        picard_quadrature_1d(instantiate("heat-quadratic"), t, x)
    assert not recwarn.list


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

    @pytest.mark.parametrize("cells", [8, 16, 64])
    def test_constant_coefficients_are_exact_at_any_cell_count(self, cells):
        # the frozen-coefficient step is the exact Gaussian transition, and
        # the splines are exact on heat-quadratic's quadratic profile, so
        # stepping back cell by cell adds no time-discretization error
        prob = instantiate("heat-quadratic", d=1)
        exact = closed_form(prob, 0.0, [0.3])
        ref = picard_quadrature_1d(prob, 0.0, [0.3], depth=2, time_cells=cells)
        assert abs(ref.value - exact.value) <= 1e-9
        assert ref.ci_halfwidth <= 1e-9

    @pytest.mark.parametrize("name", CATALOGUE)
    def test_terminal_time_returns_the_terminal_condition(self, name):
        # every catalogue problem has a d = 1 reference, and at t = T it is g(x)
        prob = instantiate(name, d=1)
        ref = picard_quadrature_1d(prob, prob.T, [0.7], depth=2, nodes=8, time_cells=8,
                                   space_points=17)
        g = float(prob.terminal(np.array([[0.7]]))[0])
        assert ref.value == pytest.approx(g, rel=1e-12, abs=1e-12)
        assert math.isfinite(ref.ci_halfwidth) and ref.ci_halfwidth >= 0.0

    def test_odd_points_keep_the_coarse_query_on_a_node(self):
        # 131 points used to give the coarse solve 66, which put the query
        # point between its nodes: 1.38e-3 against 9.7e-4 at the default 129
        ref = picard_quadrature_1d(instantiate("scaled-bs"), 0.0, [1.0], space_points=131)
        assert ref.ci_halfwidth < 1.1e-3

    @pytest.mark.parametrize("option", [{"space_points": 128}, {"time_cells": 0}])
    def test_even_points_and_no_cells_are_rejected(self, option):
        # 128 points put the query point off a node (+6.0e-4 on this value);
        # no cells used to raise ZeroDivisionError
        with pytest.raises(ValueError):
            picard_quadrature_1d(instantiate("scaled-bs"), 0.0, [1.0], **option)

    def test_preconditions(self):
        with pytest.raises(OracleError):
            picard_quadrature_1d(instantiate("heat-quadratic", d=2), 0.0, [0.0, 0.0])
        with pytest.raises(OracleError, match="d = 1 only, got d = 2 for 'scaled-bs'"):
            picard_quadrature_1d(instantiate("scaled-bs", d=2), 0.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            picard_quadrature_1d(instantiate("heat-quadratic"), 0.0, [0.0], nodes=4)


class TestCrossOracleConsistency:
    @pytest.mark.parametrize("name", ["heat-quadratic", "linear-reaction"])
    def test_closed_form_versus_quadrature(self, name):
        prob = instantiate(name, d=1)
        a = closed_form(prob, 0.0, [0.1])
        b = picard_quadrature_1d(prob, 0.0, [0.1])
        assert abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth + 1e-6


@pytest.mark.parametrize("name, x, value, halfwidth", [
    ("nonlinear-coeff-sine", 0.0, 3.4479559423164137, 0.0010685111888947309),
    ("scaled-bs", 1.0, 0.32317458019856055, 0.0009681894966622508),
])
def test_default_quadrature_is_pinned(name, x, value, halfwidth):
    # the referee of the state-dependent problems at its defaults; a change
    # to the solve that moves these is a change to every criterion it judges
    ref = picard_quadrature_1d(instantiate(name), 0.0, [x])
    assert ref.value == pytest.approx(value, rel=1e-12)
    assert ref.ci_halfwidth == pytest.approx(halfwidth, rel=1e-8)


def test_spline_count_per_iterate_does_not_grow_with_the_cells(monkeypatch):
    # two batched space splines per iterate; it used to build three per cell
    import scipy.interpolate

    made = []

    def counting(*args, **kwargs):
        made.append(None)
        return real(*args, **kwargs)

    real = scipy.interpolate.CubicSpline
    monkeypatch.setattr(scipy.interpolate, "CubicSpline", counting)
    counts = {}
    for depth, cells in [(3, 8), (3, 32), (4, 32)]:
        made.clear()
        _picard_solve(instantiate("nonlinear-coeff-sine"), 0.0, 0.0, depth, 8, cells, 17)
        counts[depth, cells] = len(made)
    assert counts[3, 8] == counts[3, 32]
    assert counts[4, 32] - counts[3, 32] == 2


class TestStateDependentCoefficients:
    def test_halfwidth_covers_a_finer_richardson_value(self):
        # the cell error is first order: 2 v(256 cells) - v(128 cells) removes it;
        # both sides use 32 nodes and 65 points to keep the test short
        prob = instantiate("nonlinear-coeff-sine", kappa=0.5)
        ref = picard_quadrature_1d(prob, 0.0, [0.0], nodes=32, space_points=65)
        v128, _ = _picard_solve(prob, 0.0, 0.0, 12, 32, 128, 65)
        v256, _ = _picard_solve(prob, 0.0, 0.0, 12, 32, 256, 65)
        assert abs(ref.value - (2.0 * v256 - v128)) <= ref.ci_halfwidth

    def test_scaled_bs_agrees_with_the_estimator(self):
        # 64 realizations at (n, M) = (4, 4), N = 256
        prob = instantiate("scaled-bs")
        ref = picard_quadrature_1d(prob, 0.0, [1.0])
        values = np.array([result.value for result in estimate_many(
            prob, MlpParams(n=4, M=4), range(64), (0,), 0.0, np.ones(1))])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(ref.value - values.mean()) <= 3.0 * se
