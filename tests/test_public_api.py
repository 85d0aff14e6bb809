"""The package's public names: a change to ``__all__`` shows as a diff here."""

import mlpicard

PUBLIC = [
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


def test_all_is_the_pinned_list():
    assert sorted(mlpicard.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in mlpicard.__all__:
        assert getattr(mlpicard, name) is not None
