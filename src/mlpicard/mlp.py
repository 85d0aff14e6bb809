"""Full-history recursive multilevel Picard estimator with exact cost ledger.

The depth-``n`` estimator at ``(t, x)`` averages a terminal sum over ``M^n``
forward paths and, for each level ``l < n``, a correction sum over
``M^(n-l)`` samples.  Each level sample draws one uniform to place the
evaluation time ``R = t + (T-t)*r``, simulates a path to ``R``, and
evaluates the nonlinearity at the level-``l`` and level-``(l-1)``
sub-estimates, which recurse with fresh child stream labels.  Labels carry
the whole recursion history, so any two branches use disjoint random
sources and the result is independent of evaluation order.

Stream label conventions for a node with base label ``theta``:

* ``theta + (0, -i)``: terminal path ``i`` (its uniform is drawn and
  discarded and is not tallied);
* ``theta + (l, i)``: level sample (uniform = ``r``, Gaussians = path) and
  at the same time the base label of the level-``l`` sub-estimate;
* ``theta + (-l, i)``: base label of the level-``(l-1)`` sub-estimate.

The tally counts work actually performed, so it can undershoot the cost
recursion bound (which charges full-length paths and two nonlinearity
evaluations per sample); the soundness invariant is one-sided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .euler import EulerConfig, simulate_batch
from .problems import Problem
from .rng import stream_for


def _sum_ascending(values: np.ndarray) -> float:
    """Strict ascending-index float sum; fixed order keeps results
    reproducible and lets flat reference loops match bit-for-bit."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


@dataclass
class CostTally:
    """Exact counts of scalar draws and function evaluations."""

    uniforms: int = 0
    gaussians: int = 0
    euler_steps: int = 0
    g_evals: int = 0
    f_evals: int = 0

    def add(self, other: "CostTally") -> None:
        self.uniforms += other.uniforms
        self.gaussians += other.gaussians
        self.euler_steps += other.euler_steps
        self.g_evals += other.g_evals
        self.f_evals += other.f_evals

    def weighted(self, w_draw: float, w_step: float, w_g: float, w_f: float) -> float:
        return (
            w_draw * (self.uniforms + self.gaussians)
            + w_step * self.euler_steps
            + w_g * self.g_evals
            + w_f * self.f_evals
        )

    def as_dict(self) -> dict:
        return {
            "uniforms": self.uniforms,
            "gaussians": self.gaussians,
            "euler_steps": self.euler_steps,
            "g_evals": self.g_evals,
            "f_evals": self.f_evals,
        }


@dataclass(frozen=True)
class MlpParams:
    n: int                       # recursion depth
    M: int                       # base of the level sample counts
    euler_steps: Optional[int] = None  # N; defaults to M**M
    root_seed: int = 0

    def __post_init__(self):
        if self.n < 0 or self.M < 1:
            raise ValueError("MlpParams requires n >= 0 and M >= 1")
        if self.euler_steps is not None and self.euler_steps < 1:
            raise ValueError("euler_steps override must be >= 1")

    @property
    def resolved_steps(self) -> int:
        return self.euler_steps if self.euler_steps is not None else self.M**self.M


@dataclass
class Estimate:
    value: float
    cost: CostTally = field(default_factory=CostTally)


def estimate(problem: Problem, params: MlpParams, theta, t: float, x) -> Estimate:
    """One realization of the depth-``params.n`` estimator at ``(t, x)``.

    Pure function of ``(problem, params, theta, t, x)``: repeated calls are
    bit-identical.  Depth 0 returns value 0 with an all-zero tally.
    """
    if not (0.0 <= t <= problem.T):
        raise ValueError(f"t must lie in [0, {problem.T}], got {t}")
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.d,):
        raise ValueError(f"x must have shape ({problem.d},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x}")
    tally = CostTally()
    cfg = EulerConfig(steps=params.resolved_steps)
    value = _node(problem, cfg, params.M, params.root_seed, tuple(theta), params.n, t, x, tally)
    return Estimate(value=value, cost=tally)


def _node(problem, cfg, M, seed, theta, n, t, x, tally) -> float:
    if n <= 0:
        return 0.0
    d, T = problem.d, problem.T

    # terminal sum: M^n paths to the horizon
    count = M**n
    streams = []
    for i in range(1, count + 1):
        st = stream_for(seed, theta + (0, -i))
        st.uniform()  # fixed stream shape; terminal paths never use r
        streams.append(st)
    states, steps = simulate_batch(problem, cfg, streams, t, x, np.full(count, T))
    total_steps = int(steps.sum())
    tally.euler_steps += total_steps
    tally.gaussians += d * total_steps
    tally.g_evals += count
    value = _sum_ascending(problem.terminal(states)) / count

    if t >= T:
        # every level term carries the factor (T - t) = 0
        return value

    for level in range(n):
        count = M ** (n - level)
        labels = [theta + (level, i) for i in range(1, count + 1)]
        streams = [stream_for(seed, lab) for lab in labels]
        uniforms = np.array([st.uniform() for st in streams])
        tally.uniforms += count
        eval_times = np.minimum(t + (T - t) * uniforms, T)
        states, steps = simulate_batch(problem, cfg, streams, t, x, eval_times)
        total_steps = int(steps.sum())
        tally.euler_steps += total_steps
        tally.gaussians += d * total_steps

        if level == 0:
            minuend_values = np.zeros(count)
        else:
            minuend_values = np.array([
                _node(problem, cfg, M, seed, labels[i], level, float(eval_times[i]), states[i], tally)
                for i in range(count)
            ])
        f_minuend = problem.nonlinearity(eval_times, states, minuend_values)
        tally.f_evals += count
        if level > 0:
            subtrahend_values = np.array([
                _node(problem, cfg, M, seed, theta + (-level, i + 1), level - 1,
                      float(eval_times[i]), states[i], tally)
                for i in range(count)
            ])
            f_sub = problem.nonlinearity(eval_times, states, subtrahend_values)
            tally.f_evals += count
            correction = f_minuend - f_sub
        else:
            correction = f_minuend
        value += (T - t) * _sum_ascending(correction) / count

    return value


def cost_recursion_bound(n: int, M: int, d: int, N: int, weights) -> float:
    """Evaluate the cost recursion upper bound by memoized recursion.

    ``weights = (w_draw, w_step, w_g, w_f)`` price one scalar random draw,
    one path step (one drift plus one diffusion evaluation), one terminal
    evaluation, and one nonlinearity evaluation.  ``N`` replaces the
    default ``M**M`` path length where overridden.  Depth ``n <= 0`` costs 0.
    """
    if M < 1 or d < 1 or N < 1:
        raise ValueError("cost_recursion_bound requires M, d, N >= 1")
    w_draw, w_step, w_g, w_f = (float(w) for w in weights)
    memo = {}

    def rec(k: int) -> float:
        if k <= 0:
            return 0.0
        if k in memo:
            return memo[k]
        total = float(M**k) * (N * d * w_draw + N * w_step + w_g)
        for level in range(k):
            total += float(M ** (k - level)) * (
                (N * d + 1) * w_draw + N * w_step + 2.0 * w_f + rec(level) + rec(level - 1)
            )
        memo[k] = total
        return total

    return rec(n)
