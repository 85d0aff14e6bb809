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
depth of the MLP tree.  Its rows are stepped in chunks, longest path first;
a chunk holds only its ``(rows, steps, d)`` increments and ``(rows, steps)``
step sizes (a window over the grid's gaps, with each path's first and last
step set from its own ``t`` and ``s``), at most ``_CHUNK_SCALARS`` scalars.
The caller reads a chunk's draws into its increments as uniforms; one pass
plans the step sizes and maps the uniforms to Brownian increments in place.
In a call of more than one chunk, a helper thread runs that pass on chunk k
while the caller steps chunk k - 1 and then draws chunk k + 1, so two chunks
may be live at once.  The pass is whole-buffer numpy, mostly without the
GIL; the draws, the ``Problem`` callables and the stepping loop (in place,
through two scratch arrays, in the operation order of ``y + (drift * dt +
diffusion * inc)``) stay on the caller.  The helper is joined before the call
returns or raises, so no thread is left when the harness forks a child; a
call of one chunk maps inline.  Every path draws from its own stream and the
pass works element by element, so neither chunks nor helper change a value.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .bounds import lyapunov_phi_batch
from .problems import Problem, check_query, is_integer
from .rng import draw_uniforms, keys_at, uniforms_to_gaussians

# Upper bound on the scalars in one chunk's live buffers, W * (d + 2) for a row
# of W steps (increments, step sizes, their transient square roots; the table
# was measured when a target-time grid held the third share): 2^19, 4 MiB.
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


def _step_sizes(first, counts, t, ends, width: int, steps: int, T: float) -> np.ndarray:
    """Step sizes of planned paths, ``(P, width)``: row i is a window of the gaps
    of the grid from ``first[i] - 1``, the columns past its count never stepped."""
    grid = np.arange(steps + width + 1) * T / steps
    gaps = grid[1:] - grid[:-1]
    # window k is gaps[k:k + width]; sliding_window_view costs ~17 us a call
    dts = np.ndarray((steps + 1, width), float, gaps, strides=gaps.strides * 2)[first - 1]
    if width:  # the first step leaves t, the last reaches the path's end
        last = np.maximum(counts - 1, 0)
        dts[:, 0] = grid[first] - t
        dts[np.arange(len(dts)), last] = ends - np.where(counts > 1, grid[first + last - 1], t)
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


def simulate_batch(problem: Problem, steps: int, keys: np.ndarray, t, x, end_times):
    """Simulate one path per stream key of ``keys`` from its start ``(t, x)`` to its end time.

    ``steps`` is ``N``, the grid intervals over ``[0, T]``.  ``keys`` is
    ``(P, 2)``, as :func:`~mlpicard.rng.keys_at` gives them; path ``i`` reads
    the Gaussians of its stream, words 1, 2, ..., and never its uniform.
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

    order = np.argsort(-counts, kind="stable")
    # chunk k is rows order[cuts[k]:cuts[k + 1]]; its live buffers (the
    # increments, step sizes and square roots) hold at most _CHUNK_SCALARS scalars
    cuts = [0]
    while cuts[-1] < P:
        W = max(int(counts[order[cuts[-1]]]), 1)
        cuts.append(min(P, cuts[-1] + max(1, _CHUNK_SCALARS // (W * (d + 2)))))

    def drawn(lo: int, hi: int):
        """Chunk ``order[lo:hi]`` with its draws as uniforms."""
        rows = order[lo:hi]
        c = counts[rows]
        incs = np.zeros((len(rows), int(c[0]), d))
        draw_uniforms(keys[rows], c * d, incs.reshape(len(rows), -1))
        return rows, c, incs

    def mapped(rows, c, incs):
        """The chunk's step sizes, and its uniforms as Brownian increments in place.
        Whole-buffer numpy, mostly without the GIL, so the helper runs it."""
        dts = _step_sizes(first[rows], c, t[rows], ends[rows], incs.shape[1], N, T)
        uniforms_to_gaussians(c * d, incs.reshape(len(rows), -1))
        incs *= np.sqrt(dts)[:, :, None]
        return rows, c, dts, incs

    def step(rows, c, dts, incs):
        y = states[rows]
        drift_dt, noise = np.empty_like(y), np.empty_like(y)
        # rows are longest first, so the paths still moving at step k are a prefix
        active = np.searchsorted(-c, -np.arange(dts.shape[1]), side="left")
        for k, a in enumerate(active.tolist()):
            ya, fa, ga = y[:a], drift_dt[:a], noise[:a]
            np.multiply(problem.drift(ya), dts[:a, k, None], out=fa)
            np.multiply(problem.diffusion(ya), incs[:a, k], out=ga)
            fa += ga
            ya += fa
        states[rows] = y

    # The caller draws chunk k + 1 while the helper maps chunk k, and steps
    # chunk k while the helper maps chunk k + 1: two chunks are live at once.
    spans = list(zip(cuts, cuts[1:]))
    with ThreadPoolExecutor(max_workers=1) if len(spans) > 1 else nullcontext() as helper:
        submit = helper.submit if helper else _done
        queued = [submit(mapped, *drawn(*spans[0]))]
        for span in spans[1:] + [None]:
            if span:
                queued.append(submit(mapped, *drawn(*span)))
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
    ``exp(2 c^3 (s-t)) phi(x)``, ``math.inf`` past the float range; path ``i``
    draws from stream ``(seed, (i,))``.  Both ``(t, x)`` and ``(s, x)`` must
    pass :func:`~mlpicard.problems.check_query`."""
    _check_steps(steps)
    if not is_integer(paths):
        raise TypeError(f"paths must be an integer, got {paths!r}")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    x = check_query(problem, t, x)
    check_query(problem, s, x, time_name="s")
    keys = keys_at(seed, (), np.arange(paths, dtype="<i8").tobytes(), 8)
    states, _ = simulate_batch(problem, steps, keys, t, x, np.full(paths, s))
    phis = lyapunov_phi_batch(states, problem.lyapunov_a)
    mean = float(phis.mean())
    se = float(phis.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    try:
        bound = math.exp(2.0 * problem.coeff_lip**3 * (s - t)) * problem.phi(x)
    except OverflowError:
        bound = math.inf
    return LyapunovCheck(empirical_mean=mean, bound=bound, std_error=se)
