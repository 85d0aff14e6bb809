"""Multilevel Picard Monte Carlo solver for semilinear parabolic PDEs.

Estimates solutions of terminal-value problems of the form

    du/dt + <mu(x), grad u> + 1/2 tr(sigma sigma^T Hess u) + f(t, x, u) = 0,
    u(T, x) = g(x),

via their stochastic fixed-point representation, using full-history
recursive multilevel Monte Carlo over hierarchical deterministic random
streams with forward paths discretized on a uniform grid.
"""

from .bounds import (
    BoundParams,
    error_bound,
    gronwall_discrete,
    gronwall_mlp,
    lyapunov_phi,
    perturbation_bound,
    total_cost_bound,
)
from .euler import lyapunov_check
from .mlp import (
    ESTIMATOR_VERSION,
    CostTally,
    Estimate,
    MlpParams,
    cost_recursion_bound,
    estimate,
    estimate_many,
)
from .problems import CATALOGUE, Problem, instantiate, validate
from .rng import RNG_ALGORITHM, stream_for

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "CATALOGUE",
    "CostTally",
    "ESTIMATOR_VERSION",
    "Estimate",
    "MlpParams",
    "Problem",
    "RNG_ALGORITHM",
    "cost_recursion_bound",
    "error_bound",
    "estimate",
    "estimate_many",
    "gronwall_discrete",
    "gronwall_mlp",
    "instantiate",
    "lyapunov_check",
    "lyapunov_phi",
    "perturbation_bound",
    "stream_for",
    "total_cost_bound",
    "validate",
]
