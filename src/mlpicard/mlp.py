"""Full-history recursive multilevel Picard estimator with exact cost ledger.

The depth-``n`` estimator at ``(t, x)`` averages a terminal sum over ``M^n``
forward paths and, for each level ``l < n``, a correction sum over
``M^(n-l)`` samples.  Each level sample draws one uniform to place the
evaluation time ``R = t + (T-t)*r``, simulates a path to ``R``, and
evaluates the nonlinearity at the level-``l`` and level-``(l-1)``
sub-estimates, which recurse with fresh child stream labels.  Labels carry
the whole recursion history, so any two branches use disjoint random
sources and the result is independent of evaluation order.

That independence lets the tree be evaluated level-synchronously, in two
phases.  Top-down, every node of one recursion depth (a "wave") creates its
streams and draws its uniforms in label order, and the terminal and level
paths of the whole wave are simulated in one ``simulate_batch`` call; each
child node starts from its parent's sampled ``(R_i, X_i)``.  The tree's shape
depends only on ``(n, M)``, so a depth-``n`` estimate takes at most ``n``
waves.  Bottom-up, each node is reduced on its own, in the fixed order: the
ascending sum of its terminal values, then per level the nonlinearity at the
minuend and at the subtrahend values.  Every float operation is the one a
depth-first recursion would perform, so the result does not depend on the
evaluation order.

Stream label conventions for a node with base label ``theta``:

* ``theta + (0, -i)``: terminal path ``i`` (its uniform is skipped and is
  not tallied);
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
from .rng import streams_for

ESTIMATOR_VERSION = "single-kernel v1"
"""Version tag of the estimator's float arithmetic.  It changes whenever
``estimate``'s output bits change for the same draws; cached results record
it next to ``RNG_ALGORITHM``."""


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
    if params.n <= 0:
        return Estimate(value=0.0, cost=tally)
    cfg = EulerConfig(steps=params.resolved_steps)
    root = _Node(tuple(theta), params.n, t, x)
    waves = []
    wave = [root]
    while wave:
        waves.append(wave)
        wave = _simulate_wave(problem, cfg, params.M, params.root_seed, wave, tally)
    for wave in reversed(waves):
        for node in wave:
            _reduce(problem, params.M, node, tally)
    return Estimate(value=root.value, cost=tally)


class _Node:
    """The depth-``n`` sub-estimate at ``(t, x)`` with base label ``theta``.

    The top-down phase fills ``terminal`` (the terminal path states) and
    ``levels``: per level, the evaluation times, the path states there and
    the minuend and subtrahend child nodes (``None`` for depth 0).  The
    bottom-up phase sets ``value``.
    """

    __slots__ = ("theta", "n", "t", "x", "terminal", "levels", "value")

    def __init__(self, theta, n, t, x):
        self.theta, self.n, self.t, self.x = theta, n, t, x
        self.levels = []


def _simulate_wave(problem, cfg, M, seed, wave, tally) -> list:
    """Simulate every path of one tree depth in one batch; return the next depth."""
    d, T = problem.d, problem.T
    streams, blocks = [], []  # blocks: (node, level or None for terminal paths, end times)
    for node in wave:
        count = M**node.n
        for st in streams_for(seed, node.theta, [(0, -i) for i in range(1, count + 1)]):
            st.skip_uniform()  # fixed stream shape; terminal paths never use r
            streams.append(st)
        blocks.append((node, None, np.full(count, T)))
        tally.g_evals += count
        if node.t >= T:
            continue  # every level term carries the factor (T - t) = 0
        for level in range(node.n):
            count = M ** (node.n - level)
            level_streams = streams_for(seed, node.theta, [(level, i) for i in range(1, count + 1)])
            uniforms = np.array([st.uniform() for st in level_streams])
            tally.uniforms += count
            streams.extend(level_streams)
            blocks.append((node, level, np.minimum(node.t + (T - node.t) * uniforms, T)))

    sizes = [len(ends) for _, _, ends in blocks]
    t0 = np.repeat([node.t for node, _, _ in blocks], sizes)
    x0 = np.repeat(np.array([node.x for node, _, _ in blocks]), sizes, axis=0)
    ends = np.concatenate([ends for _, _, ends in blocks])
    states, steps = simulate_batch(problem, cfg, streams, t0, x0, ends)
    total_steps = int(steps.sum())
    tally.euler_steps += total_steps
    tally.gaussians += d * total_steps

    children = []
    offset = 0
    for (node, level, eval_times), count in zip(blocks, sizes):
        block = states[offset: offset + count]
        offset += count
        if level is None:
            node.terminal = block
            continue
        minuends = subtrahends = None
        if level > 0:
            minuends = [_Node(node.theta + (level, i + 1), level, float(eval_times[i]), block[i])
                        for i in range(count)]
            children.extend(minuends)
        if level > 1:
            subtrahends = [_Node(node.theta + (-level, i + 1), level - 1, float(eval_times[i]),
                                 block[i]) for i in range(count)]
            children.extend(subtrahends)
        node.levels.append((eval_times, block, minuends, subtrahends))
    return children


def _values(children, count: int) -> np.ndarray:
    """Values of one level's child nodes; ``None`` stands for depth-0 children."""
    if children is None:
        return np.zeros(count)
    return np.array([child.value for child in children])


def _reduce(problem, M, node, tally) -> None:
    """Combine a node's paths and its children's values, in the fixed order."""
    T, t = problem.T, node.t
    value = _sum_ascending(problem.terminal(node.terminal)) / M**node.n
    for level, (eval_times, states, minuends, subtrahends) in enumerate(node.levels):
        count = len(eval_times)
        f_minuend = problem.nonlinearity(eval_times, states, _values(minuends, count))
        tally.f_evals += count
        if level > 0:
            f_sub = problem.nonlinearity(eval_times, states, _values(subtrahends, count))
            tally.f_evals += count
            correction = f_minuend - f_sub
        else:
            correction = f_minuend
        value += (T - t) * _sum_ascending(correction) / count
    node.value = value


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
