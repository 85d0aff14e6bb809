"""Full-history recursive multilevel Picard estimator with exact cost ledger.

The depth-``n`` estimator at ``(t, x)`` averages a terminal sum over ``M^n``
forward paths and, for each level ``l < n``, a correction sum over
``M^(n-l)`` samples.  Each level sample draws one uniform to place the
evaluation time ``R = t + (T-t)*r``, simulates a path to ``R``, and
evaluates the nonlinearity at the level-``l`` and level-``(l-1)``
sub-estimates, which recurse with fresh child stream labels.  Labels carry
the whole recursion history, so any two branches use disjoint random
sources and the result is independent of evaluation order.

That independence lets the tree be evaluated level-synchronously, and a
block of root seeds together as one forest.  Each seed's tree starts from
its own root ``(t, x)``, as every sub-estimate starts from its own sampled
point.  The full tree of ``(n, M)`` is planned once and cached as index
arrays, one set per recursion depth (a "wave"): each path's node, the path
row of the previous wave its node starts from, the tally it adds when
simulated (which marks it a terminal or a level path), and its packed label
suffix below the root label.  Top-down,
the paths of a wave are simulated for every seed of the block in one
``simulate_batch`` call, each child node starting from its parent's sampled
``(R_i, X_i)``.  The plan is only an upper bound on the shape: a node at
``t >= T`` draws no level samples and has no subtree (every level term
carries the factor ``T - t = 0``), and evaluation times can land exactly
at ``T``, so each seed masks the subtrees it skips and never simulates
them.  Bottom-up, the nodes of one depth in one wave are reduced together as
2-D arrays, in the fixed order: the ascending sum of a node's terminal
values, then per level the nonlinearity at the minuend and at the
subtrahend values.  Every float operation is the one a depth-first
recursion would perform, so the result does not depend on the evaluation
order or on which seeds share a block.

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

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import inf_past_float_range
from .euler import simulate_batch
from .problems import Problem, check_query, is_integer
from .rng import check_label, first_blocks, keys_at

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
    The seeds are evaluated as forests over the cached tree plan of
    ``(params.n, params.M)``, in blocks of bounded size (:func:`seed_blocks`).
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
    waves = _tree_plan(int(params.n), int(params.M))
    results = []
    for block in seed_blocks(params, seeds):
        roots = slice(len(results), len(results) + len(block))
        results += _forest(problem, params.resolved_steps, waves, block, theta, t[roots], x[roots])
    return results


def seed_blocks(params: MlpParams, seeds) -> list:
    """``seeds`` cut into the contiguous blocks that :func:`estimate_many`
    evaluates as one forest each; every block holds at most
    ``_BLOCK_PATHS`` tree paths, or one seed."""
    seeds = list(seeds)
    if params.n <= 0:
        return [seeds] if seeds else []
    paths = sum(len(wave.path_node) for wave in _tree_plan(int(params.n), int(params.M)))
    size = max(1, _BLOCK_PATHS // paths)
    return [seeds[lo: lo + size] for lo in range(0, len(seeds), size)]


@dataclass(frozen=True)
class _Group:
    """The nodes of one depth ``k`` within one wave, as index arrays.

    ``nodes`` (G,) are node rows of the wave, ``terminal`` (G, M^k) their
    terminal path rows, and ``levels[l]`` per level ``l`` a triple: the path
    rows (G, c), the minuend child node rows of the next wave (``None`` at
    level 0, whose minuends are depth 0) and the subtrahend child node rows
    (``None`` at levels 0 and 1).
    """

    nodes: np.ndarray
    terminal: np.ndarray
    levels: tuple


@dataclass(frozen=True)
class _Wave:
    """The nodes and paths of one recursion depth of the full tree.

    A node starts from path row ``node_parent`` of the previous wave (wave 0
    has the root alone, with a pseudo-row 0 that holds each seed's root
    ``(t, x)``).  Per path: its node, the tally columns ``(uniforms, g_evals,
    f_evals)`` it adds when it is simulated (``work``: ``(0, 1, 0)`` for a
    terminal path, ``(1, 0, 1)`` for a level-0 and ``(1, 0, 2)`` for a deeper
    level path, so column 0 marks the level paths), and its label suffix below
    the root label, packed as stream labels are, in row ``suffix``.
    """

    node_parent: np.ndarray
    path_node: np.ndarray
    path_parent: np.ndarray
    work: np.ndarray
    suffix: np.ndarray
    groups: tuple


@functools.lru_cache(maxsize=8)
def _tree_plan(n: int, M: int) -> tuple:
    """The waves of the full depth-``n`` tree with base ``M``, as read-only arrays."""
    waves = []
    nodes = [((), n, 0)]  # (label suffix, depth, parent path row)
    while nodes:
        paths, children, groups = [], [], {}  # paths: (label suffix, node, work)
        for j, (label, k, _) in enumerate(nodes):
            members, terminal, levels = groups.setdefault(
                k, ([], [], [([], [], []) for _ in range(k)]))
            members.append(j)
            terminal.append(range(len(paths), len(paths) + M**k))
            paths += [(label + (0, -i), j, (0, 1, 0)) for i in range(1, M**k + 1)]
            for level, (rows, minuends, subtrahends) in enumerate(levels):
                first, count = len(paths), M ** (k - level)
                rows.append(range(first, first + count))
                paths += [(label + (level, i), j, (1, 0, 1 + (level > 0)))
                          for i in range(1, count + 1)]
                # sample i's sub-estimates start from its path, row first + i - 1
                if level > 0:
                    minuends.append(range(len(children), len(children) + count))
                    children += [(label + (level, i), level, first + i - 1)
                                 for i in range(1, count + 1)]
                if level > 1:
                    subtrahends.append(range(len(children), len(children) + count))
                    children += [(label + (-level, i), level - 1, first + i - 1)
                                 for i in range(1, count + 1)]
        labels, path_node, work = zip(*paths)
        node_parent = _frozen([parent for _, _, parent in nodes])
        path_node = _frozen(path_node)
        waves.append(_Wave(
            node_parent=node_parent,
            path_node=path_node,
            path_parent=_frozen(node_parent[path_node]),
            work=_frozen(work),
            suffix=_frozen(np.array(labels, dtype="<i8").view(np.uint8), np.uint8),
            groups=tuple(
                _Group(_frozen(members), _frozen(terminal),
                       tuple((_frozen(rows), _frozen(mins) if mins else None,
                              _frozen(subs) if subs else None)
                             for rows, mins, subs in levels))
                for members, terminal, levels in groups.values()),
        ))
        nodes = children
    return tuple(waves)


def _frozen(values, dtype=np.int64) -> np.ndarray:
    """A read-only array: cached plans are shared by every caller."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _forest(problem, N, waves, seeds, theta, t, x) -> list:
    """Evaluate the tree of ``seeds[i]`` at its root ``(t[i], x[i])`` with ``N``
    grid steps, one batch per wave."""
    S, d, T = len(seeds), problem.d, problem.T
    work = np.zeros((S, 3), dtype=np.int64)  # uniforms, g_evals, f_evals
    steps = np.zeros(S, dtype=np.int64)
    # the previous wave's simulated paths and their end times and states
    sim, ends, states = np.ones((S, 1), bool), t[:, None], x[:, None]
    done = []
    for wave in waves:
        exists = sim[:, wave.node_parent]
        node_t = ends[:, wave.node_parent]
        live = exists & (node_t < T)
        is_level = wave.work[:, 0] == 1
        sim = np.where(is_level, live[:, wave.path_node], exists[:, wave.path_node])
        rows, paths = np.nonzero(sim)
        starts = np.searchsorted(rows, np.arange(S + 1))
        width = wave.suffix.shape[1]
        keys = np.concatenate([
            keys_at(seed, theta, wave.suffix[paths[lo:hi]].tobytes(), width)
            for seed, lo, hi in zip(seeds, starts, starts[1:])])
        block0 = first_blocks(keys)
        level = is_level[paths]
        r = block0[level, 0]  # terminal paths never read theirs
        t0 = ends[rows, wave.path_parent[paths]]
        path_ends = np.full(len(paths), T)
        path_ends[level] = np.minimum(t0[level] + (T - t0[level]) * r, T)
        path_states, counts = simulate_batch(
            problem, N, keys, t0, states[rows, wave.path_parent[paths]], path_ends, block0)
        ends = np.zeros(sim.shape)
        ends[rows, paths] = path_ends
        states = np.zeros(sim.shape + (d,))
        states[rows, paths] = path_states
        np.add.at(steps, rows, counts)
        work += sim @ wave.work
        done.append((exists, live, node_t, ends, states))

    values = None
    for wave, (exists, live, node_t, ends, states) in reversed(list(zip(waves, done))):
        child_values, values = values, np.zeros(exists.shape)
        for group in wave.groups:
            _reduce_group(problem, group, exists, live, node_t, ends, states, child_values,
                          values)
    return [
        Estimate(value=value, cost=CostTally(uniforms=u, gaussians=d * n_steps,
                                             euler_steps=n_steps, g_evals=g, f_evals=f))
        for value, (u, g, f), n_steps in zip(values[:, 0].tolist(), work.tolist(), steps.tolist())
    ]


def _reduce_group(problem, group, exists, live, node_t, ends, states, child_values,
                  values) -> None:
    """Set ``values`` of the group's nodes: ``(seed, node)`` rows reduced together,
    each in the fixed per-node order of the depth-first recursion."""
    T, d = problem.T, problem.d
    seeds, members = np.nonzero(exists[:, group.nodes])
    if not len(seeds):
        return
    nodes = group.nodes[members]
    terminal = states[seeds[:, None], group.terminal[members]]
    g = problem.terminal(terminal.reshape(-1, d)).reshape(terminal.shape[:2])
    value = _row_sums(g) / g.shape[1]
    values[seeds, nodes] = value
    on = live[seeds, nodes]
    if not on.any():
        return
    seeds, members, nodes = seeds[on], members[on], nodes[on]
    t = node_t[seeds, nodes]
    value = value[on]
    for level, (rows, minuends, subtrahends) in enumerate(group.levels):
        at = seeds[:, None], rows[members]
        times, xs = ends[at].ravel(), states[at].reshape(-1, d)
        correction = problem.nonlinearity(
            times, xs, _child_values(child_values, seeds, minuends, members, times))
        if level > 0:
            correction = correction - problem.nonlinearity(
                times, xs, _child_values(child_values, seeds, subtrahends, members, times))
        value += (T - t) * _row_sums(correction.reshape(rows[members].shape)) / rows.shape[1]
    values[seeds, nodes] = value


def _child_values(child_values, seeds, children, members, like) -> np.ndarray:
    """Flat values of one level's child nodes; ``None`` stands for depth-0 children."""
    if children is None:
        return np.zeros_like(like)
    return child_values[seeds[:, None], children[members]].ravel()


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
