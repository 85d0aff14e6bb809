"""Forward path simulation on the uniform grid k*T/N with off-grid endpoints.

A path starts at its own time ``t`` in its own state ``x`` and is advanced by
frozen-coefficient updates at every grid time strictly between ``t`` and the
query time ``s``, plus one final partial step ending exactly at ``s``.  The
number of Gaussian scalars consumed is ``d * len(update_times(t, s, N, T))``,
a pure function of ``(t, s, N, d)``; this is what makes the hierarchical
streams reproducible under any evaluation order.

Grid times are evaluated as ``k * T / N`` (left-to-right float evaluation);
membership is decided by index arithmetic around ``floor(t*N/T)``, never by
floating-point equality against ``s``.  One vectorized planner states this
for a whole batch; ``update_times`` is its one-path view.

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

from .problems import Problem
from .rng import StreamBatch, fill_gaussians, stream_for

# upper bound on the scalars in one chunk's draw buffer
_CHUNK_SCALARS = 1 << 17


class DomainError(ValueError):
    """Query time outside [t, T]."""


@dataclass(frozen=True)
class EulerConfig:
    steps: int  # N, grid intervals over [0, T]

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("EulerConfig.steps must be >= 1")


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


def update_times(t: float, s: float, steps: int, T: float) -> list:
    """Update targets for a path from time ``t`` to ``s``: interior grid
    times in ``(t, s)`` in ascending order, then ``s`` itself."""
    first, counts = _plan(np.array([t], dtype=float), np.array([s], dtype=float), steps, T)
    count = int(counts[0])
    return _targets(first, counts, np.array([s], dtype=float), count, steps, T)[0].tolist()


def simulate_batch(problem: Problem, cfg: EulerConfig, streams, t, x, end_times):
    """Simulate one path per stream from its start ``(t, x)`` to its end time.

    ``streams`` is a sequence of ``RandomStream`` or a ``StreamBatch``.  ``t``
    is a scalar or ``(P,)`` and ``x`` is ``(d,)`` or ``(P, d)``.  Streams
    must already be past their uniform draw.  Returns the terminal states
    ``(P, d)`` and per-path step counts ``(P,)``.
    """
    d, T, N = problem.d, problem.T, cfg.steps
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


def lyapunov_check(problem: Problem, cfg: EulerConfig, t: float, x, s: float,
                   paths: int, seed: int) -> LyapunovCheck:
    """Monte Carlo estimate of E[phi(Y_{t,s})] next to its analytic bound
    ``exp(2 c^3 (s-t)) phi(x)``."""
    if paths < 1:
        raise ValueError("paths must be >= 1")
    streams = []
    for i in range(paths):
        st = stream_for(seed, (i,))
        st.skip_uniform()  # path-only use; the stream uniform is never drawn
        streams.append(st)
    states, _ = simulate_batch(problem, cfg, streams, t, x, np.full(paths, s))
    phis = 2.0 * problem.lyapunov_a + 2.0 * np.sum(states * states, axis=-1)
    mean = float(phis.mean())
    se = float(phis.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    bound = math.exp(2.0 * problem.coeff_lip**3 * (s - t)) * problem.phi(x)
    return LyapunovCheck(empirical_mean=mean, bound=bound, std_error=se)
