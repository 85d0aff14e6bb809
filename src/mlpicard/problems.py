"""Problem definitions: PDE/fixed-point data plus a catalogue of test cases.

The catalogue is one table, ``_CATALOGUE``: each row names a problem, gives
the defaults of its own parameters and a builder for its own
:class:`Problem` fields.  :func:`instantiate` adds the parameters every
problem shares (``d``, ``T``, ``a``) and the fields they have in common, and
``CATALOGUE`` and ``PARAMETERS`` are read off the table.

A :class:`Problem` bundles the coefficient functions (drift ``mu``, diffusion
``sigma``), the terminal condition ``g``, the nonlinearity ``f``, and the
regularity constants used by the bound evaluators.  Coefficient callables are
vectorized over leading axes: ``drift(x)`` maps ``(..., d) -> (..., d)``,
``diffusion(x)`` maps ``(..., d) -> (..., d)``, the diagonal of ``sigma``
(every catalogue problem has diagonal ``sigma``), ``terminal(x)`` maps
``(..., d) -> (...)`` and ``nonlinearity(t, x, v)`` broadcasts over ``t``,
``x``, ``v``.

The constants are documented choices that make the sampled hypothesis checks
(:func:`validate`) pass on the default sampling box ``[-2, 2]^d``; no claim
of global tightness is made.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bounds import BoundParams, lyapunov_phi, lyapunov_phi_batch

DEFAULT_BOX_HALFWIDTH = 2.0
# safety margin applied on top of the exact box supremum when sizing b
_B_MARGIN = 1.1


class ProblemError(ValueError):
    """Unknown catalogue name or an override violating a problem invariant."""


def is_integer(value) -> bool:
    """An ``int`` or a numpy integer, and not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class Problem:
    name: str
    d: int
    T: float
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    terminal: Callable[[np.ndarray], np.ndarray]
    nonlinearity: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    lip_f: float         # L, Lipschitz constant of f in v
    coeff_lip: float     # c, coefficient Lipschitz / growth constant
    growth_b: float      # b
    growth_beta: float   # beta
    growth_p: float      # p
    lyapunov_a: float    # a in phi(x) = 2a + 2||x||^2
    # (mu0, sigma0 diagonal) when the coefficients are state-independent;
    # selects the reference oracle and feeds the Picard quadrature
    constant_coefficients: Optional[tuple] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("T", "lip_f", "coeff_lip", "growth_b", "growth_beta", "growth_p",
                     "lyapunov_a"):
            if not math.isfinite(getattr(self, name)):
                raise ProblemError(f"require finite {name}, got {getattr(self, name)!r}")
        if not is_integer(self.d):
            raise ProblemError(f"require integer d, got {self.d!r}")
        if self.d < 1 or self.T <= 0:
            raise ProblemError("require d >= 1, T > 0")
        if self.lip_f < 0 or self.coeff_lip < 1 or self.growth_b < 1:
            raise ProblemError("require L >= 0, c >= 1, b >= 1")
        if self.growth_beta < 1 or self.growth_p < 2 * self.growth_beta:
            raise ProblemError("require beta >= 1 and p >= 2*beta")
        if self.lyapunov_a < 0.5:
            raise ProblemError("require a >= 1/2 so that phi >= 1 everywhere")

    def phi(self, x) -> float:
        return lyapunov_phi(x, self.lyapunov_a)

    def bound_params(self, x) -> BoundParams:
        return BoundParams(
            b=self.growth_b,
            c=self.coeff_lip,
            beta=self.growth_beta,
            p=self.growth_p,
            T=self.T,
            phi_x=self.phi(x),
        )


def _quadratic_terminal(x):
    return np.sum(x * x, axis=-1)


def _growth_b_quadratic(d: int, T: float, a: float, box: float, extra_sup: float = 0.0) -> float:
    """Smallest documented b for max(|T f(.,0)|, |g|) <= b phi^(1/2) on the box.

    For quadratic g the ratio ||x||^2 / phi(x)^(1/2) is maximal at the box
    corner; ``extra_sup`` covers a bounded |T f(t, x, 0)| term via phi >= 2a.
    """
    corner = d * box * box
    ratio_g = corner / math.sqrt(2.0 * a + 2.0 * corner)
    ratio_f = extra_sup / math.sqrt(2.0 * a)
    return max(1.0, math.sqrt(T), _B_MARGIN * max(ratio_g, ratio_f))


def _brownian(lip_f: float, nonlinearity):
    """Builder for ``mu = 0``, ``sigma = I`` with the given reaction term."""
    def build(d, T, a):
        return dict(drift=np.zeros_like, diffusion=np.ones_like, nonlinearity=nonlinearity,
                    lip_f=lip_f, growth_b=_growth_b_quadratic(d, T, a, DEFAULT_BOX_HALFWIDTH),
                    constant_coefficients=(np.zeros(d), np.ones(d)))
    return build


def _nonlinear_coeff_sine(d, T, a, kappa, lip_f, source):
    if abs(kappa) > 2.0:
        raise ProblemError("nonlinear-coeff-sine requires |kappa| <= 2 (coefficient Lipschitz <= c)")
    if lip_f > 4.0:
        raise ProblemError("nonlinear-coeff-sine requires L <= 4 (v-Lipschitz <= c)")

    def nonlinearity(t, x, v):
        t, v = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(v, dtype=float))
        return lip_f * np.sin(v) + source

    return dict(
        drift=lambda x: kappa * np.sin(x),
        diffusion=lambda x: 1.0 + kappa * np.cos(x),
        nonlinearity=nonlinearity,
        lip_f=lip_f,
        growth_b=_growth_b_quadratic(d, T, a, DEFAULT_BOX_HALFWIDTH, extra_sup=T * abs(source)),
        lyapunov_a=max(a, d * (1.0 + abs(kappa)) ** 2 / 16.0),
        constant_coefficients=(np.zeros(d), np.ones(d)) if kappa == 0.0 else None,
    )


def _scaled_bs(d, T, a, mu_bar, sigma_bar, lip_f, strike):
    if max(abs(mu_bar), abs(sigma_bar)) > 4.0:
        raise ProblemError("scaled-bs requires |mu_bar|, |sigma_bar| <= 4 (coefficient Lipschitz <= c)")
    if lip_f > 4.0:
        raise ProblemError("scaled-bs requires L <= 4")
    return dict(
        drift=lambda x: mu_bar * x,
        diffusion=lambda x: sigma_bar * x,
        terminal=lambda x: np.maximum(x[..., 0] - strike, 0.0),
        nonlinearity=lambda t, x, v: lip_f * np.maximum(np.asarray(v, dtype=float), 0.0),
        lip_f=lip_f,
        growth_b=max(1.0, math.sqrt(T)),
    )


# Every problem's parameters are d, T, a and its own; these are the shared ones.
_SHARED_DEFAULTS = {"d": 1, "T": 1.0, "a": 1.0}
# name -> (defaults of its own parameters, builder).  A builder takes every
# parameter by name and returns the problem's own Problem fields; instantiate
# supplies the rest (a quadratic terminal, c = 4, beta = 1, p = 2, a).
_CATALOGUE = {
    "heat-quadratic": ({}, _brownian(0.0, lambda t, x, v: np.zeros_like(np.asarray(v, dtype=float)))),
    "linear-reaction": ({}, _brownian(1.0, lambda t, x, v: np.asarray(v, dtype=float))),
    "nonlinear-coeff-sine": ({"kappa": 0.5, "lip_f": 0.5, "source": 1.0}, _nonlinear_coeff_sine),
    "scaled-bs": ({"mu_bar": 0.06, "sigma_bar": 0.4, "lip_f": 0.5, "strike": 1.0}, _scaled_bs),
}
CATALOGUE = tuple(_CATALOGUE)
# every override name, in catalogue order
PARAMETERS = tuple(dict.fromkeys(
    [*_SHARED_DEFAULTS, *(key for own, _ in _CATALOGUE.values() for key in own)]))


def instantiate(name: str, **overrides) -> Problem:
    """Build a catalogue problem by name with overrides."""
    if name not in _CATALOGUE:
        raise ProblemError(f"unknown problem {name!r}; catalogue: {', '.join(CATALOGUE)}")
    own, build = _CATALOGUE[name]
    params = {**_SHARED_DEFAULTS, **own}
    for key, value in overrides.items():
        if key not in params:
            raise ProblemError(f"problem {name!r} does not accept override {key!r}")
        params[key] = value
    for key, value in params.items():
        # float(True) is 1.0; d has its own integer check below
        if isinstance(value, (bool, np.bool_)) and key != "d":
            raise ProblemError(f"override {key} must be a number, got {value!r}")
        try:
            finite = math.isfinite(float(value))
        except (TypeError, ValueError):
            raise ProblemError(f"override {key} must be a number, got {value!r}") from None
        if not finite:
            raise ProblemError(f"override {key} must be finite, got {value!r}")
    d = params["d"]
    if isinstance(d, str):
        with contextlib.suppress(ValueError):
            d = int(d)
    if not is_integer(d):
        raise ProblemError(f"override d must be an integer, got {params['d']!r}")
    params = {key: int(d) if key == "d" else float(value) for key, value in params.items()}
    if params["d"] < 1:
        raise ProblemError("override d must be a positive integer")
    if params["T"] <= 0:
        raise ProblemError("override T must be positive")
    fields = dict(terminal=_quadratic_terminal, coeff_lip=4.0, growth_beta=1.0, growth_p=2.0,
                  lyapunov_a=params["a"])
    fields.update(build(**params))
    return Problem(name=name, d=params["d"], T=params["T"], params=params, **fields)


@dataclass
class Violation:
    inequality: str
    lhs: float
    rhs: float
    witness: dict


@dataclass
class ValidationReport:
    problem: str
    samples: int
    box_halfwidth: float
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def validate(problem: Problem, samples: int, seed: int,
             box_halfwidth: float = DEFAULT_BOX_HALFWIDTH) -> ValidationReport:
    """Monte Carlo spot check of every hypothesis inequality on sampled tuples.

    Samples ``(t, x, y, v, w)`` with ``x, y`` uniform on the box,
    ``v, w`` uniform on ``[-5, 5]`` and ``t`` uniform on ``[0, T]``; any
    violated inequality is recorded with its witnessing tuple.  Violations
    are report content, not errors.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 < box_halfwidth < math.inf:
        raise ValueError(f"box_halfwidth must be finite and > 0, got {box_halfwidth!r}")
    rng = np.random.default_rng(seed)
    d, T = problem.d, problem.T
    c, b = problem.coeff_lip, problem.growth_b
    beta_over_p = problem.growth_beta / problem.growth_p
    a = problem.lyapunov_a
    violations = []

    t = rng.uniform(0.0, T, size=samples)
    x = rng.uniform(-box_halfwidth, box_halfwidth, size=(samples, d))
    y = rng.uniform(-box_halfwidth, box_halfwidth, size=(samples, d))
    z = rng.standard_normal(size=(samples, d))
    v = rng.uniform(-5.0, 5.0, size=samples)
    w = rng.uniform(-5.0, 5.0, size=samples)

    phi_x = lyapunov_phi_batch(x, a)
    phi_y = lyapunov_phi_batch(y, a)
    norm_x = np.linalg.norm(x, axis=-1)
    norm_xy = np.linalg.norm(x - y, axis=-1)
    mu_x, mu_y = problem.drift(x), problem.drift(y)
    sig_x, sig_y = problem.diffusion(x), problem.diffusion(y)
    g_x, g_y = problem.terminal(x), problem.terminal(y)
    f_x0 = problem.nonlinearity(t, x, np.zeros(samples))
    f_xv = problem.nonlinearity(t, x, v)
    f_yw = problem.nonlinearity(t, y, w)
    mu_0 = problem.drift(np.zeros((1, d)))[0]
    sig_0 = problem.diffusion(np.zeros((1, d)))[0]

    def record(mask, name, lhs, rhs, **extra):
        for i in np.flatnonzero(mask):
            violations.append(Violation(
                inequality=name,
                lhs=float(lhs[i]),
                rhs=float(rhs[i]),
                witness={"t": float(t[i]), "x": x[i].tolist(), "y": y[i].tolist(),
                         "v": float(v[i]), "w": float(w[i]), **extra},
            ))

    tol = 1e-12  # absolute slack for exact-equality corner cases

    # coefficient Lipschitz bounds
    lhs = np.sum((mu_x - mu_y) ** 2, axis=-1)
    rhs = c**2 * norm_xy**2
    record(lhs > rhs + tol, "drift-lipschitz", lhs, rhs)
    lhs = np.sum((sig_x - sig_y) ** 2, axis=-1)
    record(lhs > rhs + tol, "diffusion-lipschitz", lhs, rhs)

    # growth of the terminal condition and of f at v = 0
    lhs = np.maximum(np.abs(T * f_x0), np.abs(g_x))
    rhs = b * phi_x**beta_over_p
    record(lhs > rhs + tol, "growth", lhs, rhs)

    # joint Lipschitz bound coupling g and f through phi
    lhs = np.maximum(np.abs(g_x - g_y), T * np.abs(f_xv - f_yw))
    rhs = c * T * np.abs(v - w) + b * T**-0.5 * (phi_x + phi_y) ** beta_over_p * norm_xy
    record(lhs > rhs + tol, "joint-lipschitz", lhs, rhs)

    # Lyapunov derivative and coefficient growth at the origin
    norm_z = np.linalg.norm(z, axis=-1)
    lhs = np.abs(4.0 * np.sum(x * z, axis=-1)) / (phi_x ** ((problem.growth_p - 1) / problem.growth_p) * norm_z)
    cvec = np.full(samples, c)
    record(lhs > cvec + tol, "phi-gradient", lhs, cvec)
    lhs = 4.0 * norm_z**2 / (phi_x ** ((problem.growth_p - 2) / problem.growth_p) * norm_z**2)
    record(lhs > cvec + tol, "phi-hessian", lhs, cvec)
    lhs = (c * norm_x + np.linalg.norm(mu_0)) / phi_x ** (1.0 / problem.growth_p)
    record(lhs > cvec + tol, "drift-origin-growth", lhs, cvec)
    lhs = (c * norm_x + np.linalg.norm(sig_0)) / phi_x ** (1.0 / problem.growth_p)
    record(lhs > cvec + tol, "diffusion-origin-growth", lhs, cvec)

    return ValidationReport(problem=problem.name, samples=samples,
                            box_halfwidth=box_halfwidth, violations=violations)
