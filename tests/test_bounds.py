"""Bound evaluators against hand-computed values and brute-force oracles."""

import math

import numpy as np
import pytest

from mlpicard.bounds import (
    BoundParams,
    error_bound,
    gronwall_discrete,
    gronwall_mlp,
    lyapunov_bound,
    lyapunov_phi,
    perturbation_bound,
    total_cost_bound,
)
from mlpicard.mlp import cost_recursion_bound

from helpers import build_recursive_family


def _bp(b=1.0, c=1.0, beta=1.0, p=2.0, T=1.0, phi_x=1.0):
    return BoundParams(b=b, c=c, beta=beta, p=p, T=T, phi_x=phi_x)


class TestErrorBound:
    def test_depth_zero_hand_value(self):
        # [exp(0 + 1/2) + 1] * 12 * e^9 evaluated by hand
        expected = (math.exp(0.5) + 1.0) * 12.0 * math.exp(9.0)
        assert error_bound(0, 1, _bp()) == pytest.approx(expected, rel=1e-14)

    def test_phi_power_law(self):
        lo = error_bound(2, 3, _bp(phi_x=2.0))
        hi = error_bound(2, 3, _bp(phi_x=4.0))
        assert hi / lo == pytest.approx(2.0 ** (2.0 / 2.0), rel=1e-12)

    def test_decreasing_in_depth_for_large_base(self):
        # once sqrt(M) beats exp(2cT) the depth term makes the bound shrink
        bp = _bp(c=1.0, T=0.25)
        values = [error_bound(n, 9, bp) for n in range(7)]
        assert all(values[i + 1] < values[i] for i in range(6))

    def test_nonincreasing_in_base_below_depth(self):
        # the exp(M/2) factor grows with M, so monotone decay in M holds in
        # the regime M <= n exercised by the depth-equals-base convention
        for n in (10, 12):
            values = [error_bound(n, M, _bp()) for M in range(2, 11)]
            assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))

    def test_diagonal_vanishes_without_underflow(self):
        bp = _bp(c=1.0, T=0.25)
        diag = [error_bound(n, n, bp) for n in range(6, 13)]
        assert all(v > 0.0 for v in diag)
        assert all(diag[i + 1] < diag[i] for i in range(len(diag) - 1))
        assert diag[-1] < diag[0] / 10.0

    def test_nondecreasing_in_horizon_up_to_inf(self):
        # at c = 4, exp(9 c^3 T) leaves the float range once T > 1.2323
        values = [error_bound(3, 3, _bp(c=4.0, T=T)) for T in np.linspace(0.05, 3.0, 60)]
        assert all(values[i + 1] >= values[i] for i in range(len(values) - 1))
        assert math.isfinite(values[0]) and values[-1] == math.inf
        assert error_bound(3, 3, _bp(c=4.0, T=1.0)) < math.inf
        assert error_bound(3, 3, _bp(c=4.0, T=1.24)) == math.inf

    @pytest.mark.parametrize("T", [0.5, 1.0, 1.2])
    def test_finite_values_keep_the_unguarded_formula(self, T):
        bp = _bp(c=4.0, T=T, b=2.0, beta=1.5, p=3.0, phi_x=2.5)
        decay = math.exp(2.0 * 3 * bp.c * bp.T + 3 / 2.0) * 3 ** (-3 / 2.0) + 3 ** (-3 / 2.0)
        prefactor = (12.0 * bp.b * bp.c**2 * bp.phi_x ** ((bp.beta + 1.0) / bp.p)
                     * math.exp(9.0 * bp.c**3 * bp.T))
        assert error_bound(3, 3, bp) == decay * prefactor

    @pytest.mark.parametrize("n, T", [(3, 1.25), (3, 3.0), (200, 1.0)])
    def test_overflow_returns_inf_without_warning(self, n, T, recwarn):
        # T > 1.2323 overflows exp(9 c^3 T); n = 200 overflows exp(2 n c T)
        assert error_bound(n, 3, _bp(c=4.0, T=T)) == math.inf
        assert not recwarn.list

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            _bp(b=0.5)
        with pytest.raises(ValueError):
            _bp(p=1.5)
        with pytest.raises(ValueError):
            error_bound(-1, 1, _bp())

    @pytest.mark.parametrize("name", ["b", "c", "beta", "p", "T", "phi_x"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _bp(**{name: value})


class TestTotalCostBound:
    def test_hand_value(self):
        assert total_cost_bound(1, 1.0, 1.0, 1.0) == pytest.approx(12 * 6 * 36, rel=1e-14)

    def test_linear_in_weights(self):
        assert total_cost_bound(3, 0.0, 0.0, 0.0) == 0.0

    def test_dominates_summed_recursion(self):
        # the summed per-depth recursion, with the scalar-draw weight folded
        # into the step and nonlinearity weights, stays below the bound
        for d in (1, 10):
            w_draw, w_step, w_g, w_f = 1.0, 1.0, 1.0, 1.0
            folded_m = w_step + d * w_draw
            folded_f = w_draw + 2.0 * w_f
            for n in (1, 2, 3):
                summed = sum(
                    cost_recursion_bound(k, k, d, k**k, (w_draw, w_step, w_g, w_f))
                    for k in range(1, n + 2)
                )
                assert summed <= total_cost_bound(n, folded_m, w_g, folded_f)


class TestGronwallDiscrete:
    def test_zero_coupling_returns_alphas(self):
        alphas = np.array([0.3, 1.2, 0.0, 2.0])
        assert np.array_equal(gronwall_discrete(alphas, 0.0), alphas)

    def test_unit_coupling_hand_values(self):
        assert np.array_equal(gronwall_discrete([1.0, 1.0, 1.0], 1.0), [1.0, 2.0, 4.0])

    def test_matches_direct_recursion_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            size = int(rng.integers(1, 9))
            alphas = rng.uniform(0.0, 3.0, size=size)
            beta = float(rng.uniform(0.0, 2.0))
            got = gronwall_discrete(alphas, beta)
            gammas = []
            for n in range(size):
                acc = 0.0
                for g in gammas:
                    acc += g
                gammas.append(alphas[n] + beta * acc)
            # the closed form regroups the recursion, so allow last-ulp noise
            np.testing.assert_allclose(got, gammas, rtol=1e-12, atol=0.0)

    def test_closed_form_in_ascending_order_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            alphas = rng.uniform(0.0, 3.0, size=int(rng.integers(1, 9)))
            beta = float(rng.uniform(0.0, 2.0))
            want = []
            for n in range(len(alphas)):
                acc = 0.0
                for k in range(n):
                    acc += (1.0 + beta) ** (n - k - 1) * alphas[k]
                want.append(alphas[n] + beta * acc)
            assert gronwall_discrete(alphas, beta).tolist() == want

    def test_entries_past_the_float_range_are_inf(self, recwarn):
        # gamma_2 = 1 + 1e300 (1e300 + 1) overflows a product; gamma_3 needs
        # (1 + 1e300)^2, a power that used to raise OverflowError
        got = gronwall_discrete([1.0] * 5, 1e300)
        assert got.tolist() == [1.0, 1e300, math.inf, math.inf, math.inf]
        assert not recwarn.list

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            gronwall_discrete([1.0, -0.1], 0.5)


class TestGronwallMlp:
    def test_degenerate_coupling(self):
        got = gronwall_mlp(a=2.0, b=0.0, T=1.0, tau=0.25, p=2.0, M=3, N=4, sup_f0=9.0)
        assert got == pytest.approx(2.0 * math.exp(3.0 / 2.0) * 3.0**-2.0, rel=1e-14)

    def test_zero_length_interval(self):
        got = gronwall_mlp(a=1.5, b=2.0, T=1.0, tau=1.0, p=1.0, M=2, N=3, sup_f0=4.0)
        assert got == pytest.approx(1.5 * math.exp(2.0**0.5) * 2.0**-1.5, rel=1e-14)

    def test_dominates_grid_constructed_families(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            a = float(rng.uniform(0.0, 3.0))
            b = float(rng.uniform(0.0, 2.0))
            T = float(rng.uniform(0.5, 2.0))
            tau = float(rng.uniform(0.0, T))
            p = float(rng.choice([1.0, 2.0]))
            M = int(rng.integers(1, 5))
            N = int(rng.integers(1, 5))
            sup_f0 = float(rng.uniform(0.0, 2.0))
            fams = build_recursive_family(a, b, T, tau, p, M, N, sup_f0)
            bound = gronwall_mlp(a, b, T, tau, p, M, N, sup_f0)
            assert fams[N][0] <= bound * (1.0 + 1e-9) + 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gronwall_mlp(1, 1, 1.0, 1.5, 2.0, 2, 2, 1.0)
        with pytest.raises(ValueError):
            gronwall_mlp(1, 1, 1.0, 0.5, 0.5, 2, 2, 1.0)


class TestPerturbationBound:
    def test_linear_in_delta(self):
        assert perturbation_bound(1, 1, 2, 2, 1, 1.0, 0.5, 4.0, 2.0, 0.0) == 0.0

    def test_terminal_time_drops_exponential(self):
        got = perturbation_bound(L=2.0, rho=3.0, p=2.0, q=2.0, eta=5.0,
                                 T=4.0, t=4.0, phi_x=9.0, psi_tx=16.0, delta=0.5)
        expected = 4.0 * (1 + 2.0 * 4.0) * 4.0**-0.5 * 3.0 * 4.0 * 0.5
        assert got == pytest.approx(expected, rel=1e-14)

    def test_zero_lipschitz_reduces_exponent(self):
        got = perturbation_bound(L=0.0, rho=2.0, p=2.0, q=2.0, eta=7.0,
                                 T=1.0, t=0.0, phi_x=1.0, psi_tx=1.0, delta=1.0)
        assert got == pytest.approx(4.0 * math.exp(1.0), rel=1e-14)

    def test_nondecreasing_in_remaining_time_up_to_inf(self, recwarn):
        # rate = (L + rho/p + eta^(1/q) L)(T - t) = 2 (T - t) leaves the float
        # range once T - t > 354.9; it used to raise OverflowError there
        values = [perturbation_bound(1.0, 0.0, 2.0, 2.0, 1.0, 400.0, t, 1.0, 1.0, 1.0)
                  for t in np.linspace(400.0, 0.0, 41)]
        assert all(values[i + 1] >= values[i] for i in range(len(values) - 1))
        assert math.isfinite(values[0]) and values[-1] == math.inf
        assert not recwarn.list

    @pytest.mark.parametrize("t", [45.2, 100.0, 400.0])
    def test_finite_values_keep_the_unguarded_formula(self, t):
        # rate = 2 (400 - t): 709.6 at t = 45.2, just inside the float range
        L, rho, p, q, eta, T, phi_x, psi_tx, delta = 1.0, 0.0, 2.0, 2.0, 1.0, 400.0, 3.0, 5.0, 0.25
        rate = (L + rho / p + eta ** (1.0 / q) * L) * (T - t)
        expected = (4.0 * (1.0 + L * T) * T**-0.5 * math.exp(rate) * phi_x ** (1.0 / p)
                    * psi_tx ** (1.0 / q) * delta)
        assert perturbation_bound(L, rho, p, q, eta, T, t, phi_x, psi_tx, delta) == expected

    def test_preconditions(self):
        with pytest.raises(ValueError):
            perturbation_bound(1, 1, 1.5, 2.0, 1, 1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            perturbation_bound(1, 1, 2, 2, 1, 1.0, 2.0, 1.0, 1.0, 1.0)


class TestFloatRange:
    """Evaluators that used to raise ``OverflowError`` past the float range
    are ``inf`` there, with no warning (``error_bound``, ``perturbation_bound``
    and ``cost_recursion_bound`` are checked beside their other tests)."""

    @pytest.mark.parametrize("evaluate", [
        lambda: total_cost_bound(100, 1, 1, 1),                      # 100.0**200
        lambda: gronwall_mlp(1, 1, 1.0, 0.0, 2.0, 2000, 2, 1.0),     # exp(1000)
        lambda: gronwall_mlp(1, 1e200, 1.0, 0.0, 2.0, 2, 400, 1.0),  # (1 + 1e200)**399
        lambda: lyapunov_bound(4.0, 0.0, 6.0, 2.0),                  # exp(768)
    ], ids=["total_cost_bound", "gronwall_mlp-exp", "gronwall_mlp-power", "lyapunov_bound"])
    def test_overflow_is_inf(self, evaluate, recwarn):
        assert evaluate() == math.inf
        assert not recwarn.list

    def test_finite_values_keep_their_formulas(self):
        assert total_cost_bound(20, 1.5, 0.5, 2.5) == (
            12.0 * (3.0 * 1.5 + 0.5 + 2.0 * 2.5) * 36.0**20 * 20.0**40)
        assert gronwall_mlp(1, 1e100, 1.0, 0.0, 2.0, 2, 3, 1.0) == (
            (1 + 1e100) * math.exp(2**1.0 / 2.0) * 2 ** (-3 / 2.0) * (1.0 + 1e100) ** 2)
        assert lyapunov_bound(4.0, 0.5, 5.5, 2.0) == math.exp(2.0 * 4.0**3 * 5.0) * 2.0


class TestLyapunovPhi:
    def test_point_values(self):
        assert lyapunov_phi(np.zeros(3), 0.0) == 0.0
        assert lyapunov_phi(np.zeros(3), 1.0) == 2.0

    def test_sqrt_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            x = rng.normal(size=d) * 3.0
            a = float(rng.uniform(0.0, 4.0))
            assert math.sqrt(a) + np.linalg.norm(x) <= math.sqrt(lyapunov_phi(x, a)) + 1e-12

    def test_gradient_bound_via_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-4
        for _ in range(200):
            d = int(rng.integers(1, 5))
            x, y = rng.normal(size=d), rng.normal(size=d)
            a = float(rng.uniform(0.5, 2.0))
            directional = (lyapunov_phi(x + h * y, a) - lyapunov_phi(x - h * y, a)) / (2 * h)
            cap = 4.0 * math.sqrt(lyapunov_phi(x, a)) * np.linalg.norm(y)
            assert abs(directional) <= cap * (1.0 + 1e-4)

    def test_hessian_form_via_second_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-4
        for _ in range(200):
            d = int(rng.integers(1, 5))
            x = rng.normal(size=d)
            y = rng.normal(size=d)
            a = float(rng.uniform(0.5, 2.0))
            # unit direction keeps the h^-2 cancellation noise far below the
            # tight tolerance; raw direction checked at the looser one
            u = y / np.linalg.norm(y)
            second = (lyapunov_phi(x + h * u, a) - 2 * lyapunov_phi(x, a)
                      + lyapunov_phi(x - h * u, a)) / h**2
            assert second == pytest.approx(4.0 * np.dot(u, u), rel=1e-6)
            second_raw = (lyapunov_phi(x + h * y, a) - 2 * lyapunov_phi(x, a)
                          + lyapunov_phi(x - h * y, a)) / h**2
            assert second_raw == pytest.approx(4.0 * np.dot(y, y), rel=1e-4, abs=1e-6)
