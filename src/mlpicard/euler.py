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
so the live ``(rows, steps, d)`` draw buffer stays below ``_CHUNK_SCALARS``
whatever the batch size.  A chunk's draws are read straight into that
buffer and turned into Gaussians there in one pass.  Every path draws from
its own stream, so chunking changes no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import lyapunov_phi_batch
from .problems import Problem
from .rng import StreamBatch, fill_gaussians, keys_at

# Upper bound on the scalars in one chunk's live buffers: 2^19 float64s, 4 MiB.
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


def _targets(first, counts, ends, width: int, steps: int, T: float) -> np.ndarray:
    """Update targets of planned paths, ``(P, width)``, padded with the end time."""
    j = np.arange(width)
    grid = np.add.outer(first, j).astype(float)
    grid *= T
    grid /= steps
    np.copyto(grid, ends[:, None], where=j >= counts[:, None] - 1)
    return grid


def simulate_batch(problem: Problem, steps: int, streams, t, x, end_times):
    """Simulate one path per stream from its start ``(t, x)`` to its end time.

    ``steps`` is ``N``, the grid intervals over ``[0, T]``.  ``streams`` is a
    sequence of ``RandomStream`` or a ``StreamBatch``.  ``t`` is a scalar or
    ``(P,)`` and ``x`` is ``(d,)`` or ``(P, d)``.  Streams must already be
    past their uniform draw.  Returns the terminal states ``(P, d)`` and
    per-path step counts ``(P,)``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    d, T, N = problem.d, problem.T, steps
    P = len(streams)
    t = np.broadcast_to(np.asarray(t, dtype=float), (P,))
    x = np.broadcast_to(np.asarray(x, dtype=float), (P, d))
    ends = np.asarray(end_times, dtype=float).reshape(P)
    first, counts = _plan(t, ends, N, T)
    states = np.array(x)
    if P == 0:
        return states, counts

    order = np.argsort(-counts, kind="stable")

    lo = 0
    while lo < P:
        W = int(counts[order[lo]])
        # live buffers: targets, dts and the (rows, W, d) increments, which
        # take the raw draws and their Gaussians in place
        rows = order[lo: lo + max(1, _CHUNK_SCALARS // (max(W, 1) * (d + 2)))]
        lo += len(rows)
        c = counts[rows]
        targets = _targets(first[rows], c, ends[rows], W, N, T)
        dts = np.empty_like(targets)
        dts[:, :1] = targets[:, :1] - t[rows, None]
        np.subtract(targets[:, 1:], targets[:, :-1], out=dts[:, 1:])
        incs = np.zeros((len(rows), W, d))
        chunk = (streams[rows] if isinstance(streams, StreamBatch)
                 else [streams[p] for p in rows.tolist()])
        fill_gaussians(chunk, c * d, incs.reshape(len(rows), -1))
        incs *= np.sqrt(dts, out=targets)[:, :, None]

        y = states[rows]
        # rows are longest first, so the paths still moving at step k are a prefix
        active = np.searchsorted(-c, -np.arange(W), side="left")
        for k, a in enumerate(active.tolist()):
            ya = y[:a]
            y[:a] = ya + (problem.drift(ya) * dts[:a, k, None]
                          + problem.diffusion(ya) * incs[:a, k])
        states[rows] = y
    return states, counts


@dataclass
class LyapunovCheck:
    empirical_mean: float
    bound: float
    std_error: float


def lyapunov_check(problem: Problem, steps: int, t: float, x, s: float,
                   paths: int, seed: int) -> LyapunovCheck:
    """Monte Carlo estimate of E[phi(Y_{t,s})] next to its analytic bound
    ``exp(2 c^3 (s-t)) phi(x)``; path ``i`` draws from stream ``(seed, (i,))``."""
    if paths < 1:
        raise ValueError("paths must be >= 1")
    streams = StreamBatch(keys_at(seed, (), np.arange(paths, dtype="<i8").tobytes(), 8))
    streams.uniforms(np.zeros(paths, bool))  # path-only use; the uniforms are never drawn
    states, _ = simulate_batch(problem, steps, streams, t, x, np.full(paths, s))
    phis = lyapunov_phi_batch(states, problem.lyapunov_a)
    mean = float(phis.mean())
    se = float(phis.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    bound = math.exp(2.0 * problem.coeff_lip**3 * (s - t)) * problem.phi(x)
    return LyapunovCheck(empirical_mean=mean, bound=bound, std_error=se)
