"""Full-history recursive multilevel Picard estimator with exact cost ledger.

The depth-``n`` estimator at ``(t, x)`` averages a terminal sum over ``M^n``
forward paths and, for each level ``l < n``, a correction sum over
``M^(n-l)`` samples.  Each level sample draws one uniform to place the
evaluation time ``R = t + (T-t)*r``, simulates a path to ``R``, and
evaluates the nonlinearity at the level-``l`` and level-``(l-1)``
sub-estimates, which recurse with fresh child stream labels.  Labels carry
the whole recursion history, so any two branches use disjoint random
sources and the result is independent of evaluation order.

That independence lets the sub-estimates of one depth be evaluated
together, for a block of root seeds as one forest.  Every depth-``k``
sub-estimate has the same shape, ``M^k`` terminal paths and ``M^(k-l)``
level-``l`` samples, and its own seed row, label and start ``(t, x)``: a
root starts from its seed's ``(t, x)``, a child from its sample's
``(R_i, X_i)``.  Top-down, from depth ``n`` to 1, the paths of every pending
depth-``k`` sub-estimate are simulated in one ``simulate_batch`` call, the
terminal paths are reduced to their mean of ``g`` at once, and the two
sub-estimates of each level-``l`` sample join the pending ones of depths
``l`` and ``l - 1``.  A sub-estimate at ``t >= T`` draws no level samples
and has no children (every level term carries the factor ``T - t = 0``), and
evaluation times can land exactly at ``T``.  Bottom-up, from depth 1 to
``n``, the sub-estimates of one depth are reduced together, each in the fixed
order: the ascending sum of its terminal values, then per level the
nonlinearity at the minuend and at the subtrahend values.  Every float
operation is the one a depth-first recursion would perform, so the result
does not depend on the evaluation order or on which seeds share a block.
A sub-estimate carries the BLAKE2b state of its label, so a child's label
and a path's key each cost one extension by a 16-byte pair
(:func:`~mlpicard.rng.extended`).

Stream label conventions for a node with base label ``theta``:

* ``theta + (0, -i)``: terminal path ``i`` (Gaussians only: its uniform
  is never read and is not tallied);
* ``theta + (l, i)``: level sample (uniform = ``r``, Gaussians = path) and
  at the same time the base label of the level-``l`` sub-estimate;
* ``theta + (-l, i)``: base label of the level-``(l-1)`` sub-estimate.

The tally is counted off the paths each seed actually simulated: their
Euler steps and Gaussians, one uniform and one or two nonlinearity
evaluations per level path, one terminal evaluation per terminal path.  So
it can undershoot the cost recursion bound (which charges full-length paths
and two nonlinearity evaluations per sample); the soundness invariant is
one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import inf_past_float_range
from .euler import simulate_batch
from .problems import Problem, check_query, is_integer
from .rng import check_label, extended, first_blocks, keys_of, label_state

ESTIMATOR_VERSION = "single-kernel v1"
"""Version tag of the estimator's float arithmetic.  It changes whenever
``estimate``'s output bits change for the same draws: a pinned estimate,
such as a golden test's, holds only for the tag and ``RNG_ALGORITHM`` it was
made with."""


# upper bound on the tree paths of one seed block, summed over its seeds
_BLOCK_PATHS = 1 << 15


@dataclass
class CostTally:
    """Exact counts of scalar draws and function evaluations."""

    uniforms: int = 0
    gaussians: int = 0
    euler_steps: int = 0
    g_evals: int = 0
    f_evals: int = 0

    def weighted(self, w_draw: float, w_step: float, w_g: float, w_f: float) -> float:
        return (w_draw * (self.uniforms + self.gaussians) + w_step * self.euler_steps
                + w_g * self.g_evals + w_f * self.f_evals)


@dataclass(frozen=True)
class MlpParams:
    n: int                       # recursion depth
    M: int                       # base of the level sample counts
    euler_steps: Optional[int] = None  # N; defaults to M**M
    root_seed: int = 0

    def __post_init__(self):
        for name in ("n", "M", "euler_steps", "root_seed"):
            value = getattr(self, name)
            if not (value is None and name == "euler_steps") and not is_integer(value):
                raise TypeError(f"MlpParams.{name} must be an integer, got {value!r}")
        if self.n < 0 or self.M < 1:
            raise ValueError("MlpParams requires n >= 0 and M >= 1")
        if self.euler_steps is not None and self.euler_steps < 1:
            raise ValueError("euler_steps override must be >= 1")

    @property
    def resolved_steps(self) -> int:
        if self.euler_steps is None and self.M * math.log2(self.M) >= 1024:  # floats < 2**1024
            raise OverflowError(f"N = M**M is past the float range at M = {self.M}")
        return self.euler_steps if self.euler_steps is not None else self.M**self.M


@dataclass
class Estimate:
    value: float
    cost: CostTally = field(default_factory=CostTally)


def estimate(problem: Problem, params: MlpParams, theta, t: float, x) -> Estimate:
    """One realization of the depth-``params.n`` estimator at ``(t, x)``.

    Pure function of ``(problem, params, theta, t, x)``: repeated calls are
    bit-identical.  Depth 0 returns value 0 with an all-zero tally.  The
    one-seed view of :func:`estimate_many`, at one query point: ``t`` a number
    and ``x`` of shape ``(d,)``.
    """
    x = check_query(problem, t, x)
    return estimate_many(problem, params, [params.root_seed], theta, t, x)[0]


def estimate_many(problem: Problem, params: MlpParams, seeds, theta, t, x) -> list:
    """One :func:`estimate` per root seed in ``seeds``, in order.

    ``params.root_seed`` is ignored; realization ``i`` uses root seed
    ``seeds[i]`` at the root ``(t[i], x[i])`` and is bit-identical to the
    single-seed call there, with its own exact tally.  ``t`` is a number or
    has shape ``(S,)`` and ``x`` has shape ``(d,)`` or ``(S, d)``, for
    ``S = len(seeds)``; a number or a ``(d,)`` point is every seed's root.
    The seeds are evaluated as forests, one ``simulate_batch`` call per
    recursion depth, in blocks of bounded size (:func:`seed_blocks`).
    """
    seeds = list(seeds)
    t, x = check_query(problem, t, x, rows=len(seeds))
    theta = tuple(theta)
    check_label(theta)
    for seed in seeds:
        if not is_integer(seed):
            raise TypeError(f"root seeds must be integers, got {seed!r}")
    seeds = [int(seed) for seed in seeds]
    if params.n <= 0:
        return [Estimate(value=0.0) for _ in seeds]
    results = []
    for block in seed_blocks(params, seeds):
        roots = slice(len(results), len(results) + len(block))
        results += _forest(problem, params, block, theta, t[roots], x[roots])
    return results


def seed_blocks(params: MlpParams, seeds) -> list:
    """``seeds`` cut into the contiguous blocks that :func:`estimate_many`
    evaluates as one forest each; every block holds at most
    ``_BLOCK_PATHS`` tree paths, or one seed."""
    seeds = list(seeds)
    if params.n <= 0:
        return [seeds] if seeds else []
    # one per terminal path and one per level sample of the full tree
    paths = cost_recursion_bound(int(params.n), int(params.M), 1, 1, (0, 0, 1, 0.5))
    size = max(1, int(_BLOCK_PATHS // paths))
    return [seeds[lo: lo + size] for lo in range(0, len(seeds), size)]


def _forest(problem, params, seeds, theta, t, x) -> list:
    """Evaluate the tree of ``seeds[i]`` at its root ``(t[i], x[i])``, one batch
    per recursion depth."""
    S, d, T, n, M = len(seeds), problem.d, problem.T, int(params.n), int(params.M)
    work = np.zeros((S, 3), dtype=np.int64)  # uniforms, g_evals, f_evals
    steps = np.zeros(S, dtype=np.int64)
    # per depth, the pending sub-estimates as chunks (label states, seed rows, t, x)
    pending = [[] for _ in range(n + 1)]
    filled = [0] * (n + 1)

    def defer(depth, *chunk) -> int:
        """Queue a chunk of depth-``depth`` sub-estimates; returns the row of its first."""
        pending[depth].append(chunk)
        filled[depth] += len(chunk[1])
        return filled[depth] - len(chunk[1])

    defer(n, [label_state(seed, theta) for seed in seeds], np.arange(S), t, x)
    done = [None] * (n + 1)
    for k in range(n, 0, -1):
        if not pending[k]:
            continue
        states = [state for chunk in pending[k] for state in chunk[0]]
        rows, t0, x0 = (np.concatenate([chunk[i] for chunk in pending[k]]) for i in (1, 2, 3))
        pending[k] = None
        live = np.flatnonzero(t0 < T)
        live_states = [states[j] for j in live]
        # the paths: M^k terminal ones per sub-estimate, then per level l the
        # M^(k-l) samples of each live one, each set sub-estimate by sub-estimate;
        # a level-l sample's label is its minuend's
        counts = [M ** (k - level) for level in range(k)]
        minuend_states = [list(extended(live_states, _pairs(level, count), 16))
                          for level, count in enumerate(counts) if level > 0]
        keys = np.concatenate([keys_of(extended(states, _pairs(0, -M**k), 16)),
                               keys_of(extended(live_states, _pairs(0, counts[0]), 16))]
                              + [keys_of(chunk) for chunk in minuend_states])
        node = np.concatenate([np.repeat(np.arange(len(rows)), M**k)]
                              + [np.repeat(live, count) for count in counts])
        block0 = first_blocks(keys)
        lo = len(rows) * M**k  # the first level path
        r = block0[lo:, 0]  # terminal paths never read theirs
        path_t = t0[node]
        ends = np.full(len(node), T)
        ends[lo:] = np.minimum(path_t[lo:] + (T - path_t[lo:]) * r, T)
        path_x, path_steps = simulate_batch(problem, params.resolved_steps, keys, path_t,
                                            x0[node], ends, block0)
        np.add.at(steps, rows[node], path_steps)
        # a level-0 sample evaluates f once, a deeper one twice
        np.add.at(work, rows, (0, M**k, 0))
        np.add.at(work, rows[live], (sum(counts), 0, 2 * sum(counts) - counts[0]))
        g = problem.terminal(path_x[:lo]).reshape(len(rows), M**k)
        levels = []
        for level, count in enumerate(counts):
            at = slice(lo, lo + len(live) * count)
            lo = at.stop
            children = np.repeat(rows[live], count), ends[at], path_x[at]
            minuend = defer(level, minuend_states[level - 1], *children) if level > 0 else None
            subtrahend = None
            if level > 1:
                subtrahend_states = list(extended(live_states, _pairs(-level, count), 16))
                subtrahend = defer(level - 1, subtrahend_states, *children)
            levels.append((ends[at], path_x[at], minuend, subtrahend))
        done[k] = (_row_sums(g) / g.shape[1], t0, live, levels)

    values = [None] * (n + 1)  # per depth, its sub-estimates in pending order
    for k in range(1, n + 1):
        if done[k] is None:
            continue
        value, t0, live, levels = done[k]
        if len(live):
            t_live, value_live = t0[live], value[live]
            for level, (times, xs, minuend, subtrahend) in enumerate(levels):
                correction = problem.nonlinearity(
                    times, xs, _child_values(values[level], minuend, times))
                if level > 0:
                    correction = correction - problem.nonlinearity(
                        times, xs, _child_values(values[level - 1], subtrahend, times))
                count = M ** (k - level)
                value_live += (T - t_live) * _row_sums(correction.reshape(-1, count)) / count
            value[live] = value_live
        values[k] = value
    return [
        Estimate(value=value, cost=CostTally(uniforms=u, gaussians=d * n_steps,
                                             euler_steps=n_steps, g_evals=g, f_evals=f))
        for value, (u, g, f), n_steps in zip(values[n].tolist(), work.tolist(), steps.tolist())
    ]


def _pairs(first: int, count: int) -> bytes:
    """The packed label pairs ``(first, i)`` for ``i = 1..count``, or
    ``(first, -i)`` for a negative ``count``."""
    seconds = np.arange(1, abs(count) + 1) * (1 if count > 0 else -1)
    return np.column_stack((np.full(len(seconds), first), seconds)).astype("<i8").tobytes()


def _child_values(values, at, like) -> np.ndarray:
    """The values of one level's children, from row ``at`` of their depth's
    values on; ``None`` stands for depth-0 children."""
    if at is None:
        return np.zeros_like(like)
    return values[at: at + len(like)]


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Per-row strict ascending-index float sums; the fixed order keeps results
    reproducible and lets flat reference loops match bit for bit."""
    return np.cumsum(values, axis=1)[:, -1]


@inf_past_float_range  # an int too large for a float: M**k or N * d
def cost_recursion_bound(n: int, M: int, d: int, N: int, weights) -> float:
    """Evaluate the cost recursion upper bound, depth by depth from 1 to ``n``.

    ``weights = (w_draw, w_step, w_g, w_f)`` price one scalar random draw,
    one path step (one drift plus one diffusion evaluation), one terminal
    evaluation, and one nonlinearity evaluation.  ``N`` replaces the
    default ``M**M`` path length where overridden.  Depth ``n <= 0`` costs 0.
    With nonnegative weights the bound grows with depth, so it is ``inf``
    from the first depth at which it is; with all-zero weights it is 0.
    """
    if M < 1 or d < 1 or N < 1:
        raise ValueError("cost_recursion_bound requires M, d, N >= 1")
    w_draw, w_step, w_g, w_f = (float(w) for w in weights)
    if not any((w_draw, w_step, w_g, w_f)):
        return 0.0
    terminal = N * d * w_draw + N * w_step + w_g
    level_sample = (N * d + 1) * w_draw + N * w_step + 2.0 * w_f
    scale = [1.0]  # scale[j] = float(M**j)
    bound = [0.0, 0.0]  # bound[k + 1] is the bound at depth k, from depth -1
    for k in range(1, n + 1):
        scale.append(float(M**k))
        total = scale[k] * terminal
        for level in range(k):
            total += scale[k - level] * (level_sample + bound[level + 1] + bound[level])
        if total == math.inf:
            return math.inf
        bound.append(total)
    return bound[-1]
