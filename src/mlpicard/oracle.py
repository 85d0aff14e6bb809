"""Reference solutions: closed forms and a deterministic Picard quadrature.

Two deterministic reference routes.  Neither imports the estimator or the
random streams; they read only the problem's own data:

* :func:`closed_form`, the problem's own ``solution`` where it has one
  (``ci_halfwidth = 0``);
* :func:`picard_quadrature_1d`, a deterministic fixed-point iteration on a
  space-time grid for every one-dimensional problem.  Its transition over
  one time cell is the Euler step with the coefficients frozen at the grid
  point, exact for constant coefficients; Gauss-Hermite quadrature takes
  the Gaussian expectations as fixed matrices, one backward sweep per
  iterate, and a contraction/refinement estimate gives its half-width.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .problems import Problem, check_query


class OracleError(ValueError):
    """Reference route unsupported for the given problem."""


@dataclass
class Reference:
    value: float
    ci_halfwidth: float
    method: str  # closed_form | picard_quadrature
    provenance: str
    diagnostics: dict = field(default_factory=dict)


def problem_fingerprint(problem: Problem, t: float, x) -> str:
    """Canonical text identity of (problem instance, query point)."""
    x = np.asarray(x, dtype=float).ravel()
    parts = [problem.name]
    for key in sorted(problem.params):
        parts.append(f"{key}={problem.params[key]:.17g}")
    parts.append(f"t={t:.17g}")
    parts.append("x=" + ",".join(f"{xi:.17g}" for xi in x))
    return "|".join(parts)


def problem_hash(problem: Problem, t: float, x) -> str:
    return hashlib.sha256(problem_fingerprint(problem, t, x).encode()).hexdigest()


def closed_form(problem: Problem, t: float, x) -> Reference:
    """The problem's own exact solution, ``problem.solution(t, x)``."""
    x = check_query(problem, t, x)
    if problem.solution is None:
        raise OracleError(f"no closed form for problem {problem.name!r}")
    return Reference(value=float(problem.solution(t, x)), ci_halfwidth=0.0, method="closed_form",
                     provenance=f"closed-form:{problem_hash(problem, t, x)[:16]}")


def picard_quadrature_1d(problem: Problem, t: float, x, depth: int = 12,
                         nodes: int = 64, time_cells: int = 64,
                         space_points: int = 129) -> Reference:
    """Deterministic fixed-point iteration for any problem with d = 1.

    Works on a uniform time grid and a space grid covering a window of
    ``6 |sigma| sqrt(T) + |mu| T + 1`` around the query point, with ``mu``
    and ``sigma`` taken at the query point; at d = 1 the scalar
    ``sigma(x)`` is ``diffusion(x, 1)``.  Over each time cell a grid
    point moves by the Euler step ``x + mu(x) h + |sigma(x)| sqrt(2h) z``
    with its coefficients frozen, the exact Gaussian transition when they
    are constant; Gauss-Hermite quadrature in ``z`` takes the expectations,
    and not-a-knot cubic splines (exact on quadratic profiles) interpolate
    between grid points and times.  Both are linear in the table, so each
    iterate is one backward sweep of a fixed matrix over the cells.  The
    reported half-width is the contraction-extrapolated iteration remainder
    plus the difference to a solve with half the nodes, cells and points;
    for state-dependent coefficients that difference carries the
    first-order error in the cell width.  ``space_points`` must be odd, so
    that the query point is the middle node of both space grids.
    """
    if problem.d != 1:
        raise OracleError(
            f"picard_quadrature_1d supports d = 1 only, got d = {problem.d} for {problem.name!r}")
    if depth < 1 or nodes < 8 or time_cells < 1:
        raise ValueError("require depth >= 1, nodes >= 8 and time_cells >= 1")
    if space_points % 2 == 0:
        raise ValueError(f"space_points must be odd, got {space_points}")
    x = float(check_query(problem, t, x)[0])

    value, deltas = _picard_solve(problem, t, x, depth, nodes, time_cells, space_points)
    coarse, _ = _picard_solve(problem, t, x, depth, max(8, nodes // 2),
                              max(8, time_cells // 2), max(17, 2 * (space_points // 4) + 1))

    ratio = min(0.95, deltas[-1] / deltas[-2]) if len(deltas) >= 2 and deltas[-2] > 0 else 0.5
    remainder = deltas[-1] * ratio / (1.0 - ratio)
    ci = remainder + abs(value - coarse)
    return Reference(
        value=value,
        ci_halfwidth=ci,
        method="picard_quadrature",
        provenance=(f"picard:{problem_hash(problem, t, x)[:16]}"
                    f":depth={depth}:nodes={nodes}:cells={time_cells}:points={space_points}"),
        diagnostics={"iterate_deltas": deltas, "coarse_value": coarse},
    )


def _picard_solve(problem, t, x, depth, nodes, time_cells, space_points):
    # imported here, not at the top: scipy.interpolate costs a process about
    # 24 MiB of peak RSS and 0.3-0.4 s, and only this route uses it
    from scipy.interpolate import CubicSpline

    T = problem.T
    z, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)  # E[h(Z)] = w @ h(Gauss-Hermite abscissae)
    query = np.array([[x]])
    # The window's edge transitions land outside the grid where sigma grows
    # with |x| (scaled-bs at x = 1 reaches [-4.29, 7.78] against [-2.46, 4.46])
    # and the splines extrapolate there, but that does not reach the value:
    # 1.5 or 2 times this window at the same spacing (193 or 257 points) moves
    # scaled-bs at x = 1 by -9e-15 or -1.4e-14 and sine kappa=0.5 at x = 0 by
    # 0.  9 or 12 sigma with 193 or 257 points (spacing 10% or 15% finer) move
    # them by +7.4e-5 or +1.1e-4 (8% or 11% of the 9.7e-4 half-width) and by
    # -2.0e-6 or -2.9e-6, as does 6 sigma with 143 points (+7.2e-5): spacing.
    def coefficients(points):
        # mu and |sigma| at (k, 1) points
        return (np.broadcast_to(problem.drift(points), points.shape),
                np.abs(problem.diffusion(points, np.ones_like(points))))

    mu, sigma = coefficients(query)
    halfwidth = 6.0 * float(sigma[0, 0]) * math.sqrt(T) + abs(float(mu[0, 0])) * T + 1.0
    xgrid = np.linspace(x - halfwidth, x + halfwidth, space_points)
    times = np.linspace(0.0, T, time_cells + 1)
    h = T / time_cells
    mu, sigma = coefficients(xgrid[:, None])

    def transition(elapsed):
        # Gauss-Hermite abscissae of the frozen-coefficient step from every grid point
        return xgrid[:, None] + mu * elapsed + sigma * math.sqrt(2.0 * elapsed) * z[None, :]

    # splines are linear in their data: one cell's expectation of a tabulated
    # profile is the matrix `carry`, and `to_gl` maps the table to every cell's
    # 2 Gauss-Legendre times (weights 1/2)
    carry = w @ CubicSpline(xgrid, np.eye(space_points))(transition(h))
    gl_offsets = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    gl_times = times[:-1, None] + gl_offsets * h
    to_gl = CubicSpline(times, np.eye(time_cells + 1))(gl_times)
    gl_points = [transition(off * h) for off in gl_offsets]

    # iteration-progress metric on the inner half window: near the edges the
    # spline extrapolation used by wide transitions is not contraction-true
    inner = np.abs(xgrid - x) <= 0.5 * halfwidth

    table = np.zeros((time_cells + 1, space_points))
    cell, deltas = 0.0, []
    for _ in range(depth):
        at_gl = to_gl @ table
        previous, cell = cell, 0.0
        for o, pts in enumerate(gl_points):
            vals = CubicSpline(xgrid, at_gl[:, o].T)(pts)  # (points, nodes, cells)
            f_vals = problem.nonlinearity(gl_times[:, o], pts[..., None, None], vals)
            cell = cell + 0.5 * h * (w @ f_vals)
        # new[-1] = g, new[j] = cell[j] + carry @ new[j + 1]; by linearity the step
        # new - table is that sweep from g - table[-1] on the change in cell, so
        # the rounding of carry's large edge entries scales with the step
        step = np.empty_like(table)
        step[-1] = problem.terminal(xgrid[:, None]) - table[-1]
        change = cell - previous
        for j in range(time_cells - 1, -1, -1):
            step[j] = change[:, j] + carry @ step[j + 1]
        deltas.append(float(np.max(np.abs(step[:, inner]))))
        table += step

    value = float(CubicSpline(xgrid, CubicSpline(times, table, axis=0)(t))(x))
    return value, deltas
