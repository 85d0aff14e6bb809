"""Forward path simulation on the uniform grid k*T/N with off-grid endpoints.

A path starts at an arbitrary time ``t`` in state ``x`` and is advanced by
frozen-coefficient updates at every grid time strictly between ``t`` and the
query time ``s``, plus one final partial step ending exactly at ``s``.  The
number of Gaussian scalars consumed is ``d * len(update_times(t, s, N, T))``,
a pure function of ``(t, s, N, d)``; this is what makes the hierarchical
streams reproducible under any evaluation order.

Grid times are evaluated as ``k * T / N`` (left-to-right float evaluation);
membership is decided by index arithmetic around ``floor(t*N/T)``, never by
floating-point equality against ``s``.

Problems whose coefficients are state-independent take a closed-form update
``x + mu0*(s-t) + sigma0 * (sum of Brownian increments)`` (numpy pairwise
summation over steps) that consumes the identical draw sequence.  ``sigma0``
is the diagonal of the diffusion coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import Problem
from .rng import stream_for


class DomainError(ValueError):
    """Query time outside [t, T]."""


@dataclass(frozen=True)
class EulerConfig:
    steps: int  # N, grid intervals over [0, T]

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("EulerConfig.steps must be >= 1")


def update_times(t: float, s: float, steps: int, T: float) -> list:
    """Update targets for a path from time ``t`` to ``s``: interior grid
    times in ``(t, s)`` in ascending order, then ``s`` itself."""
    if s < t or s > T or t < 0:
        raise DomainError(f"require 0 <= t <= s <= T, got t={t}, s={s}, T={T}")
    if s == t:
        return []
    N = steps
    k = math.floor(t * N / T) + 1
    # index arithmetic can be off by one ulp; nudge to the first grid time > t
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


def simulate_batch(problem: Problem, cfg: EulerConfig, streams, t: float,
                   x: np.ndarray, end_times: np.ndarray):
    """Simulate one path per stream from ``(t, x)`` to its own end time.

    Streams must already be past their uniform draw.  Returns the terminal
    states ``(P, d)`` and per-path step counts ``(P,)``.
    """
    d, T = problem.d, problem.T
    x = np.asarray(x, dtype=float)
    P = len(streams)
    plans = [update_times(t, float(s), cfg.steps, T) for s in end_times]
    counts = np.array([len(p) for p in plans], dtype=np.int64)
    kmax = int(counts.max()) if P else 0

    deltas = np.zeros((P, kmax))
    incs = np.zeros((P, kmax, d))
    for p, plan in enumerate(plans):
        if not plan:
            continue
        dts = np.diff(np.asarray([t] + plan))
        z = streams[p].gaussians(len(plan) * d).reshape(len(plan), d)
        deltas[p, : len(plan)] = dts
        incs[p, : len(plan)] = np.sqrt(dts)[:, None] * z

    if problem.constant_coefficients is not None:
        mu0, sig0 = problem.constant_coefficients
        total = incs.sum(axis=1)
        elapsed = np.asarray(end_times, dtype=float) - t
        states = x + mu0 * elapsed[:, None] + sig0 * total
        return states, counts

    states = np.tile(x, (P, 1))
    for k in range(kmax):
        active = counts > k
        ya = states[active]
        states[active] = ya + (problem.drift(ya) * deltas[active, k, None]
                               + problem.diffusion(ya) * incs[active, k])
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
        st.uniform()  # path-only use; the stream uniform is discarded
        streams.append(st)
    states, _ = simulate_batch(problem, cfg, streams, t, x, np.full(paths, s))
    phis = 2.0 * problem.lyapunov_a + 2.0 * np.sum(states * states, axis=-1)
    mean = float(phis.mean())
    se = float(phis.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    bound = math.exp(2.0 * problem.coeff_lip**3 * (s - t)) * problem.phi(x)
    return LyapunovCheck(empirical_mean=mean, bound=bound, std_error=se)
