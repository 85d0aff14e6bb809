"""Problem definitions: PDE/fixed-point data plus a catalogue of test cases.

The catalogue is one table, ``_CATALOGUE``: each row names a problem, gives
the defaults of its own parameters and a builder for its own
:class:`Problem` fields.  :func:`instantiate` adds the parameters every
problem shares (``d``, ``T``, ``a``) and the fields they have in common, and
``CATALOGUE`` and ``PARAMETERS`` are read off the table.

A :class:`Problem` bundles the coefficient functions (drift ``mu``, diffusion
``sigma``), the terminal condition ``g``, the nonlinearity ``f``, and the
constants ``b`` and ``a`` that, with the shared ``C``, ``BETA`` and ``P``,
feed the bound evaluators.  Its callables are
vectorized over leading axes: ``drift(x)`` maps ``(..., d)`` to anything that
broadcasts to ``(..., d)``; ``diffusion(x, dw)`` is the product
``sigma(x) dw`` of the ``d x d`` matrix ``sigma(x)`` with the vector ``dw``,
``(..., d)``, broadcasting over the leading axes of ``x`` and ``dw``;
``terminal(x)`` maps ``(..., d) -> (...)`` and ``nonlinearity(t, x, v)``
broadcasts over ``t``, ``x``, ``v``.  A problem with an elementary solution
carries it as ``solution(t, x) -> float`` at a checked ``(d,)`` point; the
others have ``None``.

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
# Upper bound on a chunk's scalars, 2^19 (4 MiB), in validate and in
# euler.simulate_batch, whose chunks hold W * (d + 2) for a row of W steps.
# The share d / (d + 2) is its increments, 1 / (d + 2) its step sizes while
# it is stepped; the table below was measured when the chunk also held
# the square roots of its step sizes (and, before that, a target-time grid).
# Larger chunks take fewer trips through the stepping loop; each doubling adds
# a few MiB of peak RSS.  Measured (2-vCPU VM, numpy 2.4) on one estimate of
# scaled-bs d=8 at (n, M, N) = (2, 32, 256) and of nonlinear-coeff-sine d=1 at
# (4, 4, 256): median ms of interleaved in-process calls, loop trips, and the
# max RSS of a fresh process:
#   2^17: d=8 382 ms, 9456 trips, 59.2 MiB; d=1 122 ms, 2019 trips, 59.2 MiB
#   2^18: d=8 341 ms, 4975 trips, 62.0 MiB; d=1 111 ms, 1352 trips, 60.9 MiB
#   2^19: d=8 338 ms, 2699 trips, 67.6 MiB; d=1 113 ms,  983 trips, 63.5 MiB
#   2^20: d=8 350 ms, 1547 trips, 73.2 MiB; d=1 119 ms,  877 trips, 65.7 MiB
# heat-quadratic d=10 at (4, 4) took 376, 338, 308 and 339 ms.  Quartiles
# spread about +-10% on that host; 2^20 was faster on none of the three.
_CHUNK_SCALARS = 1 << 19
# safety margin applied on top of the exact box supremum when sizing b
_B_MARGIN = 1.1
# The hypotheses' constants c, beta and p, one choice for every problem.
# phi(x) = 2a + 2|x|^2 has Hessian 4I, so at p = 2 the smallest admissible c
# is 4; p >= 2 beta >= 2 then forces beta = 1.  Every builder caps its own
# Lipschitz constants (coefficients and f in v) at C.
C, BETA, P = 4.0, 1.0, 2.0


class ProblemError(ValueError):
    """Unknown catalogue name or an override violating a problem invariant."""


def is_integer(value) -> bool:
    """An ``int`` or a numpy integer, and not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_query(problem: Problem, t, x, time_name: str = "t", rows: Optional[int] = None):
    """``x`` as a float array, once the query point ``(t, x)`` is checked:
    ``t`` a number, not a ``bool``, in ``[0, T]``, and ``x`` finite with
    shape ``(d,)``.  The messages call the time ``time_name``.

    With ``rows`` given, ``t`` may also have shape ``(rows,)`` and ``x``
    shape ``(rows, d)``, one query point per row, and the result is the pair
    ``(t, x)`` as float arrays broadcast to ``(rows,)`` and ``(rows, d)``.
    A message about a per-row argument names its first bad row, ``t[i]`` or
    ``x[i]``."""
    times, x, d = np.asarray(t), np.asarray(x, dtype=float), problem.d
    if times.dtype.kind not in "iuf" or (rows is None and times.ndim):  # bools included
        raise TypeError(f"{time_name} must be a number, got {t!r}")
    if times.shape not in ((), (rows,)):
        raise ValueError(f"{time_name} must be a number or have shape ({rows},), "
                         f"got shape {times.shape}")
    _first_bad_row((0.0 <= times) & (times <= problem.T), time_name, times,
                   f"must lie in [0, {problem.T}]")
    if x.shape != (d,) and (rows is None or x.shape != (rows, d)):
        shapes = f"({d},)" if rows is None else f"({d},) or ({rows}, {d})"
        raise ValueError(f"x must have shape {shapes}, got {x.shape}")
    _first_bad_row(np.isfinite(x).all(axis=-1), "x", x, "must be finite")
    if rows is None:
        return x
    return np.full(rows, times, dtype=float), np.broadcast_to(x, (rows, d))


def _first_bad_row(ok: np.ndarray, name: str, values: np.ndarray, rule: str) -> None:
    """Raise ``ValueError`` unless ``ok`` holds everywhere; a per-row ``ok``
    names the first row of ``values`` where it fails."""
    if ok.all():
        return
    if ok.ndim:
        row = int(np.argmin(ok))
        name, values = f"{name}[{row}]", values[row]
    raise ValueError(f"{name} {rule}, got {values}")


@dataclass(frozen=True, eq=False)
class Problem:
    name: str
    d: int
    T: float
    drift: Callable[[np.ndarray], np.ndarray | float]
    diffusion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    terminal: Callable[[np.ndarray], np.ndarray]
    nonlinearity: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    growth_b: float      # b
    lyapunov_a: float    # a in phi(x) = 2a + 2||x||^2
    params: dict = field(default_factory=dict)
    solution: Optional[Callable[[float, np.ndarray], float]] = None  # exact u(t, x)

    def __post_init__(self):
        for name in ("T", "growth_b", "lyapunov_a"):
            if not math.isfinite(getattr(self, name)):
                raise ProblemError(f"require finite {name}, got {getattr(self, name)!r}")
        if not is_integer(self.d):
            raise ProblemError(f"require integer d, got {self.d!r}")
        if self.d < 1 or self.T <= 0:
            raise ProblemError("require d >= 1, T > 0")
        if self.growth_b < 1:
            raise ProblemError("require b >= 1")
        if self.lyapunov_a < 0.5:
            raise ProblemError("require a >= 1/2 so that phi >= 1 everywhere")

    def phi(self, x) -> float:
        return lyapunov_phi(x, self.lyapunov_a)

    def bound_params(self, x) -> BoundParams:
        return BoundParams(b=self.growth_b, c=C, beta=BETA, p=P, T=self.T, phi_x=self.phi(x))


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
    """Builder for ``mu = 0``, ``sigma = I`` (``diffusion(x, dw) = dw``) and
    the reaction term ``f = lip_f v`` (``nonlinearity``).  With
    ``g = ||x||^2`` the solution is
    ``u(t, x) = e^(lip_f (T-t)) (||x||^2 + d (T-t))``; at ``lip_f = 0`` the
    factor is exactly 1."""
    def build(d, T, a):
        return dict(drift=lambda x: 0.0, diffusion=lambda x, dw: dw, nonlinearity=nonlinearity,
                    growth_b=_growth_b_quadratic(d, T, a, DEFAULT_BOX_HALFWIDTH),
                    solution=lambda t, x: (math.exp(lip_f * (T - t))
                                           * (float(np.dot(x, x)) + d * (T - t))))
    return build


def _nonlinear_coeff_sine(d, T, a, kappa, lip_f, source):
    if abs(kappa) > 2.0:
        raise ProblemError("nonlinear-coeff-sine requires |kappa| <= 2 (coefficient Lipschitz <= c)")
    if not 0.0 <= lip_f <= C:
        raise ProblemError("nonlinear-coeff-sine requires 0 <= L <= 4 (v-Lipschitz <= c)")

    def nonlinearity(t, x, v):
        t, v = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(v, dtype=float))
        return lip_f * np.sin(v) + source

    return dict(
        drift=lambda x: kappa * np.sin(x),
        diffusion=lambda x, dw: (1.0 + kappa * np.cos(x)) * dw,
        nonlinearity=nonlinearity,
        growth_b=_growth_b_quadratic(d, T, a, DEFAULT_BOX_HALFWIDTH, extra_sup=T * abs(source)),
        lyapunov_a=max(a, d * (1.0 + abs(kappa)) ** 2 / 16.0),
    )


def _scaled_bs(d, T, a, mu_bar, sigma_bar, lip_f, strike):
    if max(abs(mu_bar), abs(sigma_bar)) > C:
        raise ProblemError("scaled-bs requires |mu_bar|, |sigma_bar| <= 4 (coefficient Lipschitz <= c)")
    if not 0.0 <= lip_f <= C:
        raise ProblemError("scaled-bs requires 0 <= L <= 4")
    return dict(
        drift=lambda x: mu_bar * x,
        diffusion=lambda x, dw: sigma_bar * x * dw,
        terminal=lambda x: np.maximum(x[..., 0] - strike, 0.0),
        nonlinearity=lambda t, x, v: lip_f * np.maximum(np.asarray(v, dtype=float), 0.0),
        growth_b=max(1.0, math.sqrt(T)),
    )


# Every problem's parameters are d, T, a and its own; these are the shared ones.
_SHARED_DEFAULTS = {"d": 1, "T": 1.0, "a": 1.0}
# name -> (defaults of its own parameters, builder).  A builder takes every
# parameter by name and returns the problem's own Problem fields; instantiate
# supplies the rest (a quadratic terminal and a).
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
    fields = dict(terminal=_quadratic_terminal, lyapunov_a=params["a"])
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
    """Monte Carlo spot check of the hypothesis inequalities on sampled tuples.

    Samples ``(t, x, y, v, w)`` with ``x, y`` uniform on the box,
    ``v, w`` uniform on ``[-5, 5]`` and ``t`` uniform on ``[0, T]``; any
    violated inequality is recorded with its witnessing tuple.  Violations
    are report content, not errors.  The ``sigma`` inequalities use the
    Hilbert-Schmidt norm, read exactly from the columns
    ``diffusion(x, e_j)``: ``O(samples d^2)`` work, in sample chunks of at
    most ``_CHUNK_SCALARS`` scalars.  The bounds on ``phi``'s own gradient
    and Hessian are not sampled: at ``C`` and ``P`` they hold for every ``a``.
    """
    if not is_integer(samples):
        raise TypeError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 < box_halfwidth < math.inf:
        raise ValueError(f"box_halfwidth must be finite and > 0, got {box_halfwidth!r}")
    rng = np.random.default_rng(seed)
    d, T, a, b = problem.d, problem.T, problem.lyapunov_a, problem.growth_b
    beta_over_p = BETA / P
    violations = []

    t = rng.uniform(0.0, T, size=samples)
    x = rng.uniform(-box_halfwidth, box_halfwidth, size=(samples, d))
    y = rng.uniform(-box_halfwidth, box_halfwidth, size=(samples, d))
    v = rng.uniform(-5.0, 5.0, size=samples)
    w = rng.uniform(-5.0, 5.0, size=samples)

    phi_x = lyapunov_phi_batch(x, a)
    phi_y = lyapunov_phi_batch(y, a)
    norm_x = np.linalg.norm(x, axis=-1)
    norm_xy = np.linalg.norm(x - y, axis=-1)
    mu_x = np.broadcast_to(problem.drift(x), x.shape)
    mu_y = np.broadcast_to(problem.drift(y), y.shape)

    def columns(points):
        """``(k, d, d)``: ``[i, j]`` is column ``j`` of ``sigma(points[i])``,
        ``diffusion(points[i], e_j)``."""
        return problem.diffusion(points[:, None], np.broadcast_to(np.eye(d), (len(points), d, d)))

    # ||sigma(x) - sigma(y)||_HS^2, in chunks of at most _CHUNK_SCALARS scalars
    rows = max(1, _CHUNK_SCALARS // (d * d))
    sig_gap = np.concatenate([
        np.sum((columns(x[i:i + rows]) - columns(y[i:i + rows])) ** 2, axis=(-2, -1))
        for i in range(0, samples, rows)])
    g_x, g_y = problem.terminal(x), problem.terminal(y)
    f_x0 = problem.nonlinearity(t, x, np.zeros(samples))
    f_xv = problem.nonlinearity(t, x, v)
    f_yw = problem.nonlinearity(t, y, w)
    mu_0 = np.broadcast_to(problem.drift(np.zeros((1, d))), (1, d))[0]
    sig_0 = columns(np.zeros((1, d)))

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
    rhs = C**2 * norm_xy**2
    record(lhs > rhs + tol, "drift-lipschitz", lhs, rhs)
    record(sig_gap > rhs + tol, "diffusion-lipschitz", sig_gap, rhs)

    # growth of the terminal condition and of f at v = 0
    lhs = np.maximum(np.abs(T * f_x0), np.abs(g_x))
    rhs = b * phi_x**beta_over_p
    record(lhs > rhs + tol, "growth", lhs, rhs)

    # joint Lipschitz bound coupling g and f through phi
    lhs = np.maximum(np.abs(g_x - g_y), T * np.abs(f_xv - f_yw))
    rhs = C * T * np.abs(v - w) + b * T**-0.5 * (phi_x + phi_y) ** beta_over_p * norm_xy
    record(lhs > rhs + tol, "joint-lipschitz", lhs, rhs)

    # coefficient growth at the origin
    cvec = np.full(samples, C)
    lhs = (C * norm_x + np.linalg.norm(mu_0)) / phi_x ** (1.0 / P)
    record(lhs > cvec + tol, "drift-origin-growth", lhs, cvec)
    lhs = (C * norm_x + np.linalg.norm(sig_0)) / phi_x ** (1.0 / P)
    record(lhs > cvec + tol, "diffusion-origin-growth", lhs, cvec)

    return ValidationReport(problem=problem.name, samples=samples,
                            box_halfwidth=box_halfwidth, violations=violations)
