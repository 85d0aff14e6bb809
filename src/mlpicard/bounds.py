"""Closed-form evaluators for the solver's error, cost, and auxiliary bounds.

All functions here are pure and stateless.  They are deliberately decoupled
from :class:`mlpicard.problems.Problem` so that experiment reports can probe
the bounds with arbitrary parameter combinations.  The bounds are one-sided
and typically loose by many orders of magnitude; nothing here claims
tightness.

One rule covers the float range: where an evaluator's arithmetic leaves it,
the bound is ``math.inf``.  :func:`inf_past_float_range` turns the
``OverflowError`` of ``math.exp``, a float power or an int-to-float
conversion into ``math.inf``; an overflowing product is ``inf`` already.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


def inf_past_float_range(evaluate):
    """Decorator: ``evaluate`` returns ``math.inf`` where it raises ``OverflowError``."""
    @functools.wraps(evaluate)
    def bounded(*args, **kwargs):
        try:
            return evaluate(*args, **kwargs)
        except OverflowError:
            return math.inf
    return bounded


@dataclass(frozen=True)
class BoundParams:
    """Parameters feeding the a priori root-mean-square error bound.

    ``b``: growth constant, ``c``: Lipschitz/growth constant, ``beta`` and
    ``p``: growth exponents, ``T``: time horizon, ``phi_x``: value of the
    quadratic Lyapunov weight at the query point.
    """

    b: float
    c: float
    beta: float
    p: float
    T: float
    phi_x: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"bound parameter {name} must be finite, got {value!r}")
        if not (self.b >= 1 and self.c >= 1 and self.beta >= 1):
            raise ValueError("bound parameters require b, c, beta >= 1")
        if self.p < 2 * self.beta:
            raise ValueError("bound parameters require p >= 2*beta")
        if self.T <= 0 or self.phi_x < 1:
            raise ValueError("bound parameters require T > 0 and phi_x >= 1")


@inf_past_float_range
def error_bound(n: int, M: int, bp: BoundParams) -> float:
    """A priori bound on the RMS error of the depth-``n``, base-``M`` estimator.

    Evaluates
    ``[exp(2ncT + M/2) M^(-n/2) + M^(-M/2)] * 12 b c^2 phi^((beta+1)/p) exp(9 c^3 T)``;
    ``exp(9 c^3 T)`` alone leaves the float range once ``c^3 T > 78.9``,
    that is ``T > 1.2323`` at ``c = 4``.
    """
    if n < 0 or M < 1:
        raise ValueError("error_bound requires n >= 0 and M >= 1")
    decay = math.exp(2.0 * n * bp.c * bp.T + M / 2.0) * M ** (-n / 2.0) + M ** (-M / 2.0)
    prefactor = (12.0 * bp.b * bp.c**2 * bp.phi_x ** ((bp.beta + 1.0) / bp.p)
                 * math.exp(9.0 * bp.c**3 * bp.T))
    return decay * prefactor


@inf_past_float_range
def total_cost_bound(n: int, weight_mu_sigma: float, weight_g: float, weight_f: float) -> float:
    """Bound on the summed cost of the depth-1 through depth-(n+1) estimators.

    Evaluates ``12 (3m + g + 2f) 36^n n^(2n)`` in the folded weight
    convention: the per-step coefficient evaluation weight absorbs the
    ``d``-fold scalar-draw weight, and the per-sample nonlinearity weight
    absorbs one scalar draw plus two evaluations.
    """
    if n < 1:
        raise ValueError("total_cost_bound requires n >= 1")
    return 12.0 * (3.0 * weight_mu_sigma + weight_g + 2.0 * weight_f) * 36.0**n * float(n) ** (2 * n)


def gronwall_discrete(alphas, beta: float) -> np.ndarray:
    """Explicit solution of the discrete Gronwall recursion.

    Returns ``gamma_n = alpha_n + beta * sum_{k<n} (1+beta)^(n-k-1) alpha_k``
    for every ``n``; any sequence satisfying
    ``eps_n <= alpha_n + beta * sum_{k<n} eps_k`` is dominated elementwise.
    Summation runs in ascending ``k`` for reproducibility.  The float-range
    rule holds entry by entry.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError("alphas must be one-dimensional")
    if beta < 0 or np.any(alphas < 0):
        raise ValueError("gronwall_discrete requires nonnegative inputs")
    alphas, beta = alphas.tolist(), float(beta)
    return np.array([_gronwall_entry(alphas, beta, n) for n in range(len(alphas))], dtype=float)


@inf_past_float_range
def _gronwall_entry(alphas: list, beta: float, n: int) -> float:
    acc = 0.0
    for k in range(n):
        acc += (1.0 + beta) ** (n - k - 1) * alphas[k]
    return alphas[n] + beta * acc


@inf_past_float_range
def gronwall_mlp(a: float, b: float, T: float, tau: float, p: float, M: int, N: int,
                 sup_f0: float) -> float:
    """Terminal bound for the level-indexed integral Gronwall recursion.

    Evaluates
    ``[a + b (T-tau)^(1/p) sup_f0] * exp(M^(p/2)/p) * M^(-N/2) * (1 + b (T-tau)^(1/p))^(N-1)``,
    which dominates ``f_N(tau)`` for any nonnegative family satisfying
    ``f_n(t) <= a M^(-n/2) + sum_{l<n} b M^(-(n-l-1)/2) (int_t^T f_l^p)^(1/p)``.
    """
    if not (0 <= tau <= T):
        raise ValueError("gronwall_mlp requires 0 <= tau <= T")
    if p < 1 or M < 1 or N < 1:
        raise ValueError("gronwall_mlp requires p >= 1, M >= 1, N >= 1")
    horizon = (T - tau) ** (1.0 / p)
    return ((a + b * horizon * sup_f0) * math.exp(M ** (p / 2.0) / p) * M ** (-N / 2.0)
            * (1.0 + b * horizon) ** (N - 1))


@inf_past_float_range
def perturbation_bound(L: float, rho: float, p: float, q: float, eta: float, T: float,
                       t: float, phi_x: float, psi_tx: float, delta: float) -> float:
    """Stability bound between two fixed-point solutions driven by nearby flows.

    Evaluates
    ``4 (1+LT) T^(-1/2) exp((L + rho/p + eta^(1/q) L)(T-t)) phi^(1/p) psi^(1/q) delta``;
    the exponential leaves the float range once its exponent passes about 709.78.
    """
    if T <= 0 or not (0 <= t <= T):
        raise ValueError("perturbation_bound requires T > 0 and 0 <= t <= T")
    if 1.0 / p + 1.0 / q > 1.0 + 1e-15:
        raise ValueError("perturbation_bound requires 1/p + 1/q <= 1")
    growth = math.exp((L + rho / p + eta ** (1.0 / q) * L) * (T - t))
    return 4.0 * (1.0 + L * T) * T**-0.5 * growth * phi_x ** (1.0 / p) * psi_tx ** (1.0 / q) * delta


@inf_past_float_range
def lyapunov_bound(c: float, t: float, s: float, phi_x: float) -> float:
    """Bound ``exp(2 c^3 (s-t)) phi(x)`` on ``E[phi(Y_{t,s})]``, coefficient constant ``c``."""
    return math.exp(2.0 * c**3 * (s - t)) * phi_x


def lyapunov_phi(x, a: float) -> float:
    """Quadratic Lyapunov weight ``phi(x) = 2a + 2*||x||^2``."""
    x = np.asarray(x, dtype=float)
    return 2.0 * a + 2.0 * float(np.dot(x.ravel(), x.ravel()))


def lyapunov_phi_batch(x: np.ndarray, a: float) -> np.ndarray:
    """Vectorized :func:`lyapunov_phi` over the leading axes of ``x``."""
    x = np.asarray(x, dtype=float)
    return 2.0 * a + 2.0 * np.sum(x * x, axis=-1)
