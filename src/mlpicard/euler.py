"""Forward path simulation on the uniform grid k*T/N with off-grid endpoints.

A path starts at its own time ``t`` in its own state ``x`` and is advanced by
frozen-coefficient updates at every grid time strictly between ``t`` and the
query time ``s``, plus one final partial step ending exactly at ``s``.  The
number of Gaussian scalars consumed is ``d`` per update target, a pure
function of ``(t, s, N, d)``; this is what makes the hierarchical streams
reproducible under any evaluation order.

Grid times are evaluated as ``k * T / N`` (left-to-right float evaluation);
membership is decided by index arithmetic around ``floor(t*N/T)``, never by
floating-point equality against ``s``.  One vectorized planner states this
for a whole batch.

A batch may mix start points, so one call can simulate every path of one
depth of the MLP tree.  Its rows are stepped in chunks, longest path first,
and a chunk's ``(rows, steps, d)`` increments are the only chunk-sized array
alive from its draw to the end of its stepping.  A call allocates its
increment buffers once, zero-filled (two if it has more than one chunk), and
chunk k lives in buffer ``k % 2``.  The caller reads a chunk's draws into its
increments as uniforms; the map pass then turns them into Brownian
increments in place, one block of about ``_MAP_SLOTS`` step slots (rows
times steps) at a time: the block's inverse CDF, then its scaling by the
square roots of its step sizes.  Step sizes are a window over the grid's
gaps, with each path's first and last step set from its own ``t`` and
``s``; the map windows the gaps' square roots, and stepping builds its own
chunk's ``(rows, steps)`` step sizes just before its loop.  So a call holds
two chunks' increments, the stepping chunk's step sizes and one map block's
temporaries.  In a call of more than one chunk, a helper thread runs the map
pass on chunk k while the caller steps chunk k - 1 and then draws chunk
k + 1 into chunk k - 1's buffer.  The pass is numpy over whole blocks,
mostly without the GIL; the draws, the ``Problem`` callables and the
stepping loop (in place, through one scratch array, in the operation order
of ``y + (drift(y) * dt + diffusion(y, inc))``) stay on the caller.  The
helper is joined before the call returns or raises, so no thread is left
when the harness forks a child; a call of one chunk maps inline.  Every
path draws from its own stream and the pass works element by element, so
neither chunks, blocks nor helper change a value.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .bounds import lyapunov_bound, lyapunov_phi_batch
from .problems import _CHUNK_SCALARS, C, Problem, check_query, is_integer
from .rng import (draw_uniforms, extended, first_blocks, keys_of, label_state,
                  uniforms_to_gaussians)

# Step slots (rows * W) in one block of the map pass: 2^15, so a block's mask
# and the square roots of its step sizes take (d + 8) * 32 KiB.  Sized by
# slots, not rows (heat-run's chunks of ~6 000 short rows would need ~100 map
# calls at 64 rows a block) nor scalars (bs-wide-d8 would map 16 rows a
# block).  Measured (2-vCPU VM, numpy 2.4) on sine-deep, bs-wide-d8 and
# heat-run (the perfbench workloads, in one process): median ms per operation
# over 60 interleaved rounds, and tracemalloc's peak per estimate:
#   2^13: sine 79 ms, 4.5 MiB; bs-d8 208 ms, 7.9 MiB; heat 80 ms
#   2^14: sine 76 ms, 4.5 MiB; bs-d8 199 ms, 7.9 MiB; heat 81 ms
#   2^15: sine 72 ms, 4.5 MiB; bs-d8 192 ms, 8.0 MiB; heat 77 ms
#   2^16: sine 68 ms, 4.8 MiB; bs-d8 195 ms, 8.2 MiB; heat 77 ms
#   2^17: sine 78 ms, 5.2 MiB; bs-d8 188 ms, 8.2 MiB; heat 76 ms
# Quartiles spread about +-15%, wider than any of these gaps; a whole chunk
# per block (the earlier design) peaked at 6.9 and 11.3 MiB.
_MAP_SLOTS = _CHUNK_SCALARS >> 4


class DomainError(ValueError):
    """Query time outside [t, T]."""


def _plan(t: np.ndarray, s: np.ndarray, steps: int, T: float):
    """Grid plan of paths from ``t`` to ``s`` (equal-length 1-d arrays).

    Returns ``(first, counts)``: the index of the first grid time ``> t`` and
    the number of update targets (interior grid times, then ``s``; none when
    ``s == t``).  Target ``j < counts-1`` is ``(first + j) * T / N``.
    """
    bad = ~((0.0 <= t) & (t <= s) & (s <= T))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"require 0 <= t <= s <= T, got t={t[i]}, s={s[i]}, T={T}")
    N = steps
    # index arithmetic can be off by one ulp; nudge to the first grid time > t
    first = np.floor(t * N / T).astype(np.int64) + 1
    while (down := (first >= 1) & ((first - 1) * T / N > t)).any():
        first -= down
    while (up := first * T / N <= t).any():
        first += up
    # and to the first grid time >= s, which ends the interior times
    stop = np.maximum(np.ceil(s * N / T).astype(np.int64), first)
    while (down := (stop > first) & ((stop - 1) * T / N >= s)).any():
        stop -= down
    while (up := stop * T / N < s).any():
        stop += up
    counts = np.where(s > t, stop - first + 1, 0)
    return first, counts


def _step_sizes(first, counts, t, ends, width: int, steps: int, T: float,
                of=np.asarray) -> np.ndarray:
    """Step sizes of planned paths, ``(P, width)``: row i is a window of the gaps
    of the grid from ``first[i] - 1``, the columns past its count never stepped.
    ``of``, an element-wise function such as ``np.sqrt``, maps each step size;
    it maps the grid's gaps before they are windowed, so each gap only once."""
    grid = np.arange(steps + width + 1) * T / steps
    gaps = of(grid[1:] - grid[:-1])
    # window k is gaps[k:k + width]; sliding_window_view costs ~17 us a call
    dts = np.ndarray((steps + 1, width), float, gaps, strides=gaps.strides * 2)[first - 1]
    if width:  # the first step leaves t, the last reaches the path's end
        last = np.maximum(counts - 1, 0)
        dts[:, 0] = of(grid[first] - t)
        dts[np.arange(len(dts)), last] = of(ends - np.where(counts > 1, grid[first + last - 1], t))
    return dts


def _done(fn, *args) -> Future:
    """``fn(*args)``, run now, as a finished future."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _check_steps(steps) -> None:
    if not is_integer(steps):
        raise TypeError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")


def simulate_batch(problem: Problem, steps: int, keys: np.ndarray, t, x, end_times, block0=None):
    """Simulate one path per stream key of ``keys`` from its start ``(t, x)`` to its end time.

    ``steps`` is ``N``, the grid intervals over ``[0, T]``.  ``keys`` is
    ``(P, 2)``, as :func:`~mlpicard.rng.keys_of` gives them; path ``i`` reads
    the Gaussians of its stream, words 1, 2, ..., and never its uniform; its
    block 0 is ``block0[i]``, from :func:`~mlpicard.rng.first_blocks` if not given.
    ``t`` is a scalar or ``(P,)`` and ``x`` is ``(d,)`` or ``(P, d)``, finite.
    Returns the terminal states ``(P, d)`` and per-path step counts ``(P,)``.
    """
    _check_steps(steps)
    d, T, N = problem.d, problem.T, steps
    P = len(keys)
    t = np.broadcast_to(np.asarray(t, dtype=float), (P,))
    x = np.broadcast_to(np.asarray(x, dtype=float), (P, d))
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"x must be finite, got row {i}: {x[i].tolist()}")
    ends = np.asarray(end_times, dtype=float).reshape(P)
    first, counts = _plan(t, ends, N, T)
    states = np.array(x)
    if P == 0:
        return states, counts
    block0 = first_blocks(keys) if block0 is None else block0

    order = np.argsort(-counts, kind="stable")
    # chunk k is rows order[cuts[k]:cuts[k + 1]], at most _CHUNK_SCALARS scalars
    # counting W * (d + 2) per row
    cuts = [0]
    while cuts[-1] < P:
        W = max(int(counts[order[cuts[-1]]]), 1)
        cuts.append(min(P, cuts[-1] + max(1, _CHUNK_SCALARS // (W * (d + 2)))))
    spans = list(zip(cuts, cuts[1:]))
    # chunk k's increments live in buffer k % 2, zero-filled once, so the
    # padding past a path's count only ever holds finite values
    size = max((hi - lo) * int(counts[order[lo]]) for lo, hi in spans) * d
    buffers = [np.zeros(size) for _ in spans[:2]]

    def step_sizes(rows, c, width: int, of=np.asarray):
        return _step_sizes(first[rows], c, t[rows], ends[rows], width, N, T, of)

    def drawn(k: int):
        """Chunk ``k`` with its draws as uniforms."""
        rows = order[slice(*spans[k])]
        c = counts[rows]
        incs = buffers[k % 2][:len(rows) * int(c[0]) * d].reshape(len(rows), int(c[0]), d)
        draw_uniforms(keys[rows], c * d, incs.reshape(len(rows), -1), block0[rows])
        return rows, c, incs

    def mapped(rows, c, incs):
        """The chunk's uniforms as Brownian increments in place, in blocks of
        about _MAP_SLOTS step slots.  numpy over whole blocks, mostly without
        the GIL, so the helper runs it."""
        width = incs.shape[1]
        block = max(1, _MAP_SLOTS // max(width, 1))
        for lo in range(0, len(rows), block):
            r, cb, z = rows[lo:lo + block], c[lo:lo + block], incs[lo:lo + block]
            uniforms_to_gaussians(cb * d, z.reshape(len(r), -1))
            z *= step_sizes(r, cb, width, np.sqrt)[:, :, None]
        return rows, c, incs

    def step(rows, c, incs):
        dts = step_sizes(rows, c, incs.shape[1])
        y = states[rows]
        move = np.empty_like(y)
        # rows are longest first, so the paths still moving at step k are a prefix
        active = np.searchsorted(-c, -np.arange(dts.shape[1]), side="left")
        for k, a in enumerate(active.tolist()):
            ya, fa = y[:a], move[:a]
            np.multiply(problem.drift(ya), dts[:a, k, None], out=fa)
            fa += problem.diffusion(ya, incs[:a, k])
            ya += fa
        states[rows] = y

    # The caller draws chunk k + 1 while the helper maps chunk k, and steps
    # chunk k while the helper maps chunk k + 1; it draws chunk k + 2 into
    # chunk k's buffer only once chunk k is stepped.
    with ThreadPoolExecutor(max_workers=1) if len(spans) > 1 else nullcontext() as helper:
        submit = helper.submit if helper else _done
        queued = [submit(mapped, *drawn(0))]
        for k in range(1, len(spans) + 1):
            if k < len(spans):
                queued.append(submit(mapped, *drawn(k)))
            step(*queued.pop(0).result())
    return states, counts


@dataclass
class LyapunovCheck:
    empirical_mean: float
    bound: float
    std_error: float


def lyapunov_check(problem: Problem, steps: int, t: float, x, s: float,
                   paths: int, seed: int) -> LyapunovCheck:
    """Monte Carlo estimate of E[phi(Y_{t,s})] next to its analytic bound
    :func:`~mlpicard.bounds.lyapunov_bound`; path ``i`` draws from stream
    ``(seed, (i,))``.  Both ``(t, x)`` and ``(s, x)`` must pass
    :func:`~mlpicard.problems.check_query`."""
    _check_steps(steps)
    if not is_integer(paths):
        raise TypeError(f"paths must be an integer, got {paths!r}")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    x = check_query(problem, t, x)
    check_query(problem, s, x, time_name="s")
    keys = keys_of(extended([label_state(seed, ())], np.arange(paths)[:, None]))
    states, _ = simulate_batch(problem, steps, keys, t, x, np.full(paths, s))
    phis = lyapunov_phi_batch(states, problem.lyapunov_a)
    mean = float(phis.mean())
    se = float(phis.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    bound = lyapunov_bound(C, t, s, problem.phi(x))
    return LyapunovCheck(empirical_mean=mean, bound=bound, std_error=se)
