"""Shared test oracles."""

import dataclasses
import math

import numpy as np

from mlpicard.euler import DomainError, _plan, simulate_batch
from mlpicard.problems import instantiate
from mlpicard.rng import (
    _generator_at,
    draw_uniforms,
    extended,
    first_blocks,
    keys_of,
    label_state,
    uniforms_to_gaussians,
)


def _sum_ascending(values: np.ndarray) -> float:
    """Strict ascending-index float sum, the order of every estimator reduction."""
    return float(np.cumsum(values)[-1])


def stream_for(root_seed, theta):
    """The key of the stream addressed by ``(root_seed, theta)``, a nonempty
    label, as a one-row ``(1, 2)`` key array."""
    if len(theta) < 1:
        raise ValueError("stream label must be a nonempty integer sequence")
    return keys_of([label_state(root_seed, theta)])


def keys_at(root_seed, parent, suffixes):
    """The keys of the labels ``parent`` plus each row of ``suffixes``, an
    integer array of shape ``(count, width)``."""
    return keys_of(extended([label_state(root_seed, parent)], suffixes))


def raw_uniform_sequence(root_seed, theta, count):
    """Uniform [0, 1) view of a stream's raw word sequence from word 0, for
    statistics: distributional checks (correlation, KS) need long uniform
    sequences from a single label."""
    return _generator_at(stream_for(root_seed, theta)[0].tolist(), 0).random(count)


def draw_uniform(keys) -> float:
    """The uniform of a one-row key array, word 0 of its stream."""
    return float(first_blocks(keys)[0, 0])


def fill_gaussians(keys, counts, out) -> None:
    """The first ``counts[i]`` Gaussians of the stream keyed by ``keys[i]`` into
    ``out[i, :counts[i]]``: the draw phase, then the map phase."""
    draw_uniforms(keys, counts, out, first_blocks(keys))
    uniforms_to_gaussians(counts, out)


def draw_gaussians(keys, n) -> np.ndarray:
    """The first ``n`` Gaussians of a one-row key array, words 1 to ``n``."""
    out = np.empty((1, n))
    fill_gaussians(keys, np.array([n]), out)
    return out[0]


def build_recursive_family(a, b, T, tau, p, M, N, sup_f0, grid_size=801):
    """Construct f_0..f_N satisfying the level-indexed integral recursion
    with equality on a fine grid (trapezoid quadrature for the suffix
    integrals); independent oracle for the dominance bound."""
    ts = np.linspace(tau, T, grid_size)
    fams = [np.full(grid_size, sup_f0)]
    for n in range(1, N + 1):
        fn = np.full(grid_size, a * M ** (-n / 2.0))
        for level in range(n):
            integrand = fams[level] ** p
            suffix = np.zeros(grid_size)
            if grid_size > 1:
                cell = 0.5 * np.diff(ts) * (integrand[:-1] + integrand[1:])
                suffix[:-1] = np.cumsum(cell[::-1])[::-1]
            fn = fn + b * M ** (-(n - level - 1) / 2.0) * suffix ** (1.0 / p)
        fams.append(fn)
    return fams


def update_times(t, s, steps, T):
    """One path's update targets from the vectorized planner: interior grid
    times ``k * T / steps`` in ``(t, s)`` in ascending order, then ``s`` itself."""
    first, counts = _plan(np.array([t], dtype=float), np.array([s], dtype=float), steps, T)
    k, c = int(first[0]), int(counts[0])
    return [j * T / steps for j in range(k, k + c - 1)] + [float(s)] * (c > 0)


def update_times_reference(t, s, steps, T):
    """One-path scalar loop over grid indices; reference for the planner."""
    if s < t or s > T or t < 0:
        raise DomainError(f"require 0 <= t <= s <= T, got t={t}, s={s}, T={T}")
    if s == t:
        return []
    N = steps
    k = math.floor(t * N / T) + 1
    while k >= 1 and (k - 1) * T / N > t:
        k -= 1
    while k * T / N <= t:
        k += 1
    times = []
    while k * T / N < s:
        times.append(k * T / N)
        k += 1
    times.append(s)
    return times


def recursive_node(problem, N, M, seed, theta, n, t, x, tally):
    """Depth-first evaluation of one estimator node, one ``simulate_batch``
    call per path set; reference for the forest's one batch per recursion depth."""
    if n <= 0:
        return 0.0
    d, T = problem.d, problem.T

    count = M**n
    keys = np.concatenate([stream_for(seed, theta + (0, -i)) for i in range(1, count + 1)])
    states, steps = simulate_batch(problem, N, keys, t, x, np.full(count, T))
    total_steps = int(steps.sum())
    tally.euler_steps += total_steps
    tally.gaussians += d * total_steps
    tally.g_evals += count
    value = _sum_ascending(problem.terminal(states)) / count

    if t >= T:
        return value

    for level in range(n):
        count = M ** (n - level)
        labels = [theta + (level, i) for i in range(1, count + 1)]
        keys = np.concatenate([stream_for(seed, lab) for lab in labels])
        r = np.array([draw_uniform(key[None]) for key in keys])
        tally.uniforms += count
        eval_times = np.minimum(t + (T - t) * r, T)
        states, steps = simulate_batch(problem, N, keys, t, x, eval_times)
        total_steps = int(steps.sum())
        tally.euler_steps += total_steps
        tally.gaussians += d * total_steps

        if level == 0:
            minuend_values = np.zeros(count)
        else:
            minuend_values = np.array([
                recursive_node(problem, N, M, seed, labels[i], level, float(eval_times[i]),
                               states[i], tally)
                for i in range(count)
            ])
        f_minuend = problem.nonlinearity(eval_times, states, minuend_values)
        tally.f_evals += count
        if level > 0:
            subtrahend_values = np.array([
                recursive_node(problem, N, M, seed, theta + (-level, i + 1), level - 1,
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


def read_csv(path: str) -> tuple:
    """Round-trip reader for files written by :func:`emit_csv`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    lines = [ln for ln in lines if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def rotated_sine(d: int, seed: int = 2718):
    """``nonlinear-coeff-sine`` at ``d`` turned by a fixed orthogonal ``Q``, and ``Q``.

    With ``m``, ``s`` and ``g`` the diagonal row's callables, the rotated
    problem has ``drift(x) = m(xQ) Q^T``, ``diffusion(x, dw) = s(xQ, dwQ) Q^T``
    and ``terminal(x) = g(xQ)``: ``sigma(x) = Q diag(1 + kappa cos(Q^T x)) Q^T``
    is neither diagonal nor affine.  ``Q^T X`` is the diagonal row's Euler
    chain driven by ``Q^T dW``, which has the law of ``dW``, so an estimate at
    ``x`` has the law of the diagonal row's estimate at ``Q^T x``.
    """
    base = instantiate("nonlinear-coeff-sine", d=d)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    rotated = dataclasses.replace(
        base, name="rotated-sine",
        drift=lambda x: base.drift(x @ Q) @ Q.T,
        diffusion=lambda x, dw: base.diffusion(x @ Q, dw @ Q) @ Q.T,
        terminal=lambda x: base.terminal(x @ Q))
    return rotated, Q
