"""Reference solutions: closed forms, deterministic Picard quadrature, and
cached high-budget Monte Carlo baselines.

Three reference routes with decreasing authority of exactness:

* :func:`closed_form` for the two catalogue problems with elementary
  solutions (``ci_halfwidth = 0``);
* :func:`picard_quadrature_1d`, a deterministic fixed-point iteration on a
  space-time grid for one-dimensional constant-coefficient problems, with
  Gauss-Hermite quadrature for the Gaussian transition expectations and a
  contraction/refinement error estimate;
* :func:`mc_baseline`, a high-budget run of the estimator itself, persisted
  to a human-inspectable cache file and reloaded bit-identically.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .mlp import ESTIMATOR_VERSION, MlpParams, estimate_many, seed_blocks
from .problems import Problem, check_query
from .rng import RNG_ALGORITHM

_SQRT_PI = math.sqrt(math.pi)


class OracleError(ValueError):
    """Reference route unsupported for the given problem."""


@dataclass
class Reference:
    value: float
    ci_halfwidth: float
    method: str  # closed_form | picard_quadrature | mc_baseline
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


# name -> u(t, x) from ||x||^2, d and T - t, for the problems with elementary solutions
_CLOSED_FORMS = {
    "heat-quadratic": lambda sq, d, remaining: sq + d * remaining,
    "linear-reaction": lambda sq, d, remaining: math.exp(remaining) * (sq + d * remaining),
}


def has_closed_form(problem: Problem) -> bool:
    return problem.name in _CLOSED_FORMS


def closed_form(problem: Problem, t: float, x) -> Reference:
    """Exact solution for the heat-quadratic and linear-reaction problems.

    heat-quadratic: ``u(t, x) = ||x||^2 + d (T - t)``.
    linear-reaction: the quadratic-profile substitution reduces the
    fixed-point equation to two scalar equations with solution
    ``u(t, x) = e^(T-t) ||x||^2 + d (T-t) e^(T-t)``.
    """
    x = check_query(problem, t, x)
    if not has_closed_form(problem):
        raise OracleError(f"no closed form for problem {problem.name!r}")
    value = _CLOSED_FORMS[problem.name](float(np.dot(x, x)), problem.d, problem.T - t)
    return Reference(value=value, ci_halfwidth=0.0, method="closed_form",
                     provenance=f"closed-form:{problem_hash(problem, t, x)[:16]}")


def _gh_expect(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # E[h(Z)] with h tabulated at the Gauss-Hermite nodes on the last axis
    return values @ weights / _SQRT_PI


def picard_quadrature_1d(problem: Problem, t: float, x, depth: int = 12,
                         nodes: int = 64, time_cells: int = 64,
                         space_points: int = 129) -> Reference:
    """Deterministic fixed-point iteration for d=1, constant coefficients.

    Works on a uniform time grid and a space grid covering a +-(6 sigma)
    window around the query point; Gaussian transition expectations use
    Gauss-Hermite quadrature, spatial/temporal evaluation between grid
    points uses not-a-knot cubic splines (exact on quadratic profiles).
    The reported half-width combines the contraction-extrapolated iteration
    remainder with a coarse-grid refinement difference.
    """
    if problem.d != 1:
        raise OracleError("picard_quadrature_1d supports d = 1 only")
    if problem.constant_coefficients is None:
        raise OracleError("picard_quadrature_1d requires constant coefficients")
    if depth < 1 or nodes < 8:
        raise ValueError("require depth >= 1 and nodes >= 8")
    x = float(check_query(problem, t, x)[0])

    value, deltas = _picard_solve(problem, t, x, depth, nodes, time_cells, space_points)
    coarse, _ = _picard_solve(problem, t, x, depth, max(8, nodes // 2),
                              max(8, time_cells // 2), max(17, (space_points + 1) // 2))

    if len(deltas) >= 2 and deltas[-2] > 0:
        ratio = min(0.95, deltas[-1] / deltas[-2])
    else:
        ratio = 0.5
    remainder = deltas[-1] * ratio / (1.0 - ratio) if deltas else 0.0
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
    mu0 = float(problem.constant_coefficients[0][0])
    sig0 = float(problem.constant_coefficients[1][0])
    z, w = np.polynomial.hermite.hermgauss(nodes)

    halfwidth = 6.0 * abs(sig0) * math.sqrt(T) + abs(mu0) * T + 1.0
    xgrid = np.linspace(x - halfwidth, x + halfwidth, space_points)
    times = np.linspace(0.0, T, time_cells + 1)

    def transition(points, start_time, elapsed):
        # Gauss-Hermite abscissae of the exact Gaussian transition
        return points[:, None] + mu0 * elapsed + abs(sig0) * math.sqrt(2.0 * elapsed) * z[None, :]

    # terminal expectations E[g(X_{tau_j -> T})], exact under quadrature
    terminal_table = np.empty((time_cells + 1, space_points))
    for j, tau in enumerate(times):
        if tau >= T:
            terminal_table[j] = problem.terminal(xgrid[:, None])
        else:
            pts = transition(xgrid, tau, T - tau)
            terminal_table[j] = _gh_expect(problem.terminal(pts[..., None]), w)

    # 2-point Gauss-Legendre rule on each time cell
    gl_offsets = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    gl_weights = np.array([0.5, 0.5])

    # iteration-progress metric on the inner half window: near the edges the
    # spline extrapolation used by wide transitions is not contraction-true
    inner = np.abs(xgrid - x) <= 0.5 * halfwidth

    table = np.zeros((time_cells + 1, space_points))
    deltas = []
    for _ in range(depth):
        time_spline = CubicSpline(times, table, axis=0)
        running = np.zeros((time_cells + 1, space_points))
        for j in range(time_cells - 1, -1, -1):
            tau, tau_next = times[j], times[j + 1]
            h = tau_next - tau
            cell = np.zeros(space_points)
            for off, gw in zip(gl_offsets, gl_weights):
                s_q = tau + off * h
                elapsed = s_q - tau
                slice_q = CubicSpline(xgrid, time_spline(s_q))
                pts = transition(xgrid, tau, elapsed)
                vals = slice_q(pts)
                f_vals = problem.nonlinearity(s_q, pts[..., None], vals)
                cell += gw * h * _gh_expect(f_vals, w)
            carry = CubicSpline(xgrid, running[j + 1])
            pts = transition(xgrid, tau, h)
            running[j] = cell + _gh_expect(carry(pts), w)
        new_table = terminal_table + running
        deltas.append(float(np.max(np.abs(new_table[:, inner] - table[:, inner]))))
        table = new_table

    value = float(CubicSpline(xgrid, CubicSpline(times, table, axis=0)(t))(x))
    return value, deltas


@dataclass(frozen=True)
class BaselineBudget:
    n: int
    M: int
    euler_steps: int
    replications: int

    def __post_init__(self):
        if self.n < 1 or self.M < 1 or self.euler_steps < 1 or self.replications < 2:
            raise ValueError("baseline budget requires n, M, steps >= 1 and replications >= 2")


_CACHE_FORMAT = "mlp-baseline-v1"


def _cache_key(problem: Problem, t: float, x, budget: BaselineBudget, seed: int) -> str:
    payload = "|".join([
        problem_hash(problem, t, x),
        f"n={budget.n}", f"M={budget.M}", f"steps={budget.euler_steps}",
        f"reps={budget.replications}", f"seed={seed}",
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _cache_file(cache_path: str, key: str) -> str:
    return os.path.join(cache_path, f"baseline-{key}.txt")


def _write_cache(path: str, lines: list) -> None:
    body = "\n".join(lines)
    digest = hashlib.sha256(body.encode()).hexdigest()
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body + "\nchecksum = " + digest + "\n")
    os.replace(tmp, path)


def _read_cache(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError:
        return None
    lines = raw.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("checksum = "):
        return None
    stored = lines[-1][len("checksum = "):]
    body = "\n".join(lines[:-1])
    if hashlib.sha256(body.encode()).hexdigest() != stored:
        return None  # corrupted entry: caller recomputes
    entry = {}
    for line in lines[:-1]:
        key, _, value = line.partition(" = ")
        entry[key] = value
    return entry


def mc_baseline(problem: Problem, t: float, x, budget: BaselineBudget, seed: int,
                cache_path: str, progress=None) -> Reference:
    """Mean over independent high-budget estimator runs, cached on disk.

    Replication ``r`` uses root seed ``seed + r`` at label ``(0,)``.  The
    half-width is ``2.58 * SE``.  Results are persisted under
    ``cache_path`` keyed by (problem hash incl. query point, budget, seed).
    A checksum-clean entry that records the current ``RNG_ALGORITHM`` and
    ``ESTIMATOR_VERSION`` is reloaded bit-identically; any other entry is
    recomputed.
    """
    x = check_query(problem, t, x)
    key = _cache_key(problem, t, x, budget, seed)
    path = _cache_file(cache_path, key)
    provenance = f"mc-baseline:{key}"

    expected = {"format": _CACHE_FORMAT, "key": key, "rng_algorithm": RNG_ALGORITHM,
                "estimator_version": ESTIMATOR_VERSION}
    entry = _read_cache(path)
    if entry is not None and all(entry.get(k) == v for k, v in expected.items()):
        return Reference(
            value=float(entry["value"]),
            ci_halfwidth=float(entry["ci_halfwidth"]),
            method="mc_baseline",
            provenance=provenance,
            diagnostics={"cache_hit": True, "path": path},
        )

    params = MlpParams(n=budget.n, M=budget.M, euler_steps=budget.euler_steps)
    values = []
    for block in seed_blocks(params, [seed + r for r in range(budget.replications)]):
        values += [result.value for result in estimate_many(problem, params, block, (0,), t, x)]
        if progress is not None:
            progress(len(values), budget.replications)
    values = np.asarray(values)
    mean = float(values.mean())
    ci = float(2.58 * values.std(ddof=1) / math.sqrt(budget.replications))

    os.makedirs(cache_path, exist_ok=True)
    lines = [f"{name} = {value}" for name, value in expected.items()] + [
        f"problem = {problem.name}",
        f"problem_hash = {problem_hash(problem, t, x)}",
        f"fingerprint = {problem_fingerprint(problem, t, x)}",
        f"budget_n = {budget.n}",
        f"budget_m = {budget.M}",
        f"budget_steps = {budget.euler_steps}",
        f"budget_replications = {budget.replications}",
        f"seed = {seed}",
        f"value = {mean:.17g}",
        f"ci_halfwidth = {ci:.17g}",
    ]
    for r, v in enumerate(values):
        lines.append(f"rep_{r:04d} = {v:.17g}")
    _write_cache(path, lines)
    return Reference(value=mean, ci_halfwidth=ci, method="mc_baseline",
                     provenance=provenance, diagnostics={"cache_hit": False, "path": path})
