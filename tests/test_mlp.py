"""Estimator semantics: flat-loop reference, cost ledger, statistics."""

import dataclasses
import functools
import itertools
import math
import re
import time

import numpy as np
import pytest
from scipy import stats

from mlpicard import euler, mlp, rng
from mlpicard.mlp import (
    CostTally,
    MlpParams,
    cost_recursion_bound,
    estimate,
    estimate_many,
    seed_blocks,
)
from mlpicard.problems import instantiate
from helpers import (
    draw_gaussians,
    draw_uniform,
    recursive_node,
    rotated_sine,
    stream_for,
    update_times,
)

MU_BAR, SIGMA_BAR, LIP, STRIKE = 0.06, 0.4, 0.5, 1.0


def _flat_gbm_path(stream, t, s, steps, T, x0):
    """Scalar left-to-right replay of the frozen-coefficient update."""
    plan = update_times(t, s, steps, T)
    z = draw_gaussians(stream, len(plan))
    y, prev = x0, t
    for k, t_next in enumerate(plan):
        dt = t_next - prev
        y = y + ((MU_BAR * y) * dt + (SIGMA_BAR * y) * (math.sqrt(dt) * z[k]))
        prev = t_next
    return y


def _flat_estimate(seed, theta, n, M, steps, T, t, x0):
    """Plain-float nested-loop transcription of the estimator definition
    for the d=1 payoff problem; shares streams with the engine."""
    if n == 0:
        return 0.0
    acc = 0.0
    for i in range(1, M**n + 1):
        y = _flat_gbm_path(stream_for(seed, theta + (0, -i)), t, T, steps, T, x0)
        acc += max(y - STRIKE, 0.0)
    value = acc / M**n
    if t >= T:
        return value
    for level in range(n):
        count = M ** (n - level)
        acc = 0.0
        for i in range(1, count + 1):
            label = theta + (level, i)
            st = stream_for(seed, label)
            r = draw_uniform(st)
            eval_time = min(t + (T - t) * r, T)
            y = _flat_gbm_path(st, t, eval_time, steps, T, x0)
            if level == 0:
                v_new = 0.0
            else:
                v_new = _flat_estimate(seed, label, level, M, steps, T, eval_time, y)
            term = LIP * max(v_new, 0.0)
            if level > 0:
                v_old = _flat_estimate(seed, theta + (-level, i), level - 1, M, steps,
                                       T, eval_time, y)
                term -= LIP * max(v_old, 0.0)
            acc += term
        value += (T - t) * acc / count
    return value


def _payoff_problem():
    return instantiate("scaled-bs", mu_bar=MU_BAR, sigma_bar=SIGMA_BAR,
                       lip_f=LIP, strike=STRIKE)


class TestZeroDepth:
    def test_value_and_cost_are_zero(self):
        prob = instantiate("heat-quadratic", d=3)
        res = estimate(prob, MlpParams(n=0, M=5, root_seed=9), (0,), 0.2, np.zeros(3))
        assert res.value == 0.0
        assert res.cost == CostTally()


class TestFlatReference:
    def test_depth_one_formula(self):
        # terminal average plus (T - t) times the mean zero-state correction
        prob = _payoff_problem()
        params = MlpParams(n=1, M=3, euler_steps=4, root_seed=31)
        got = estimate(prob, params, (0,), 0.0, np.array([1.0]))
        flat = _flat_estimate(31, (0,), 1, 3, 4, 1.0, 0.0, 1.0)
        assert got.value == flat
        assert got.cost.uniforms == 3          # one r per level sample
        assert got.cost.g_evals == 3
        assert got.cost.f_evals == 3           # single evaluation at level 0

    @pytest.mark.parametrize("n,M,theta,t", [
        (2, 2, (0,), 0.0),
        (2, 3, (0,), 0.25),
        (3, 2, (5, -2), 0.0),
    ])
    def test_matches_flat_recursion_bitwise(self, n, M, theta, t):
        prob = _payoff_problem()
        params = MlpParams(n=n, M=M, euler_steps=4, root_seed=77)
        got = estimate(prob, params, theta, t, np.array([1.0]))
        flat = _flat_estimate(77, theta, n, M, 4, 1.0, t, 1.0)
        assert got.value == flat

    def test_matches_flat_recursion_multidim_to_roundoff(self):
        # d = 2 with transcendental coefficients: replay with arrays of one
        # path; batching must not change results beyond representation noise
        prob = instantiate("nonlinear-coeff-sine", d=2, kappa=0.5, lip_f=0.5)
        params = MlpParams(n=2, M=2, euler_steps=4, root_seed=13)
        got = estimate(prob, params, (0,), 0.0, np.zeros(2))

        def path(stream, t, s):
            plan = update_times(t, s, 4, 1.0)
            z = draw_gaussians(stream, len(plan) * 2).reshape(len(plan), 2)
            y, prev = np.zeros(2), t
            for k, t_next in enumerate(plan):
                dt = t_next - prev
                y = y + (0.5 * np.sin(y) * dt
                         + (1.0 + 0.5 * np.cos(y)) * (math.sqrt(dt) * z[k]))
                prev = t_next
            return y

        def flat(theta, n, t, x):
            if n == 0:
                return 0.0
            acc = 0.0
            for i in range(1, 2**n + 1):
                y = path_from(stream_for(13, theta + (0, -i)), t, 1.0, x)
                acc += float(np.sum(y * y))
            value = acc / 2**n
            for level in range(n):
                count = 2 ** (n - level)
                lacc = 0.0
                for i in range(1, count + 1):
                    label = theta + (level, i)
                    st = stream_for(13, label)
                    r = draw_uniform(st)
                    s = min(t + (1.0 - t) * r, 1.0)
                    y = path_from(st, t, s, x)
                    v1 = flat(label, level, s, y) if level else 0.0
                    term = 0.5 * math.sin(v1) + 1.0
                    if level:
                        v0 = flat(theta + (-level, i), level - 1, s, y)
                        term -= 0.5 * math.sin(v0) + 1.0
                    lacc += term
                value += (1.0 - t) * lacc / count
            return value

        def path_from(stream, t, s, x):
            plan = update_times(t, s, 4, 1.0)
            z = draw_gaussians(stream, len(plan) * 2).reshape(len(plan), 2)
            y, prev = np.asarray(x, dtype=float), t
            for k, t_next in enumerate(plan):
                dt = t_next - prev
                y = y + (0.5 * np.sin(y) * dt
                         + (1.0 + 0.5 * np.cos(y)) * (math.sqrt(dt) * z[k]))
                prev = t_next
            return y

        assert got.value == pytest.approx(flat((0,), 2, 0.0, np.zeros(2)), rel=1e-10)


# (problem, overrides, n, M, N, t, x).  Heat and linear reaction are the
# constant-coefficient cases; heat's f = 0 hides every level path from the
# value, linear reaction's f(v) = v does not.
WAVE_CASES = [
    ("nonlinear-coeff-sine", {"d": 2}, 3, 3, None, 0.1, [0.3, -0.7]),
    ("scaled-bs", {"d": 4}, 3, 2, None, 0.0, [1.0, 0.8, 1.2, 0.9]),
    ("heat-quadratic", {"d": 1}, 3, 3, 27, 0.0, [0.4]),
    ("linear-reaction", {"d": 1}, 3, 3, 27, 0.0, [0.4]),
    ("nonlinear-coeff-sine", {"d": 1}, 3, 2, None, 1.0, [0.5]),  # t = T: terminal paths only
    # just below T: about half the children land exactly at T and skip their subtrees
    ("linear-reaction", {"d": 1}, 3, 3, 27, float(np.nextafter(1.0, 0.0)), [0.4]),
]


class TestWaveMatchesRecursion:
    """The forest, one batch per recursion depth, against the depth-first
    recursion in helpers, which makes one ``simulate_batch`` call per path set."""

    @pytest.mark.parametrize("chunk_scalars", [None, 200])
    @pytest.mark.parametrize("name,overrides,n,M,N,t,x", WAVE_CASES)
    def test_value_and_tally_bitwise(self, monkeypatch, chunk_scalars, name, overrides,
                                     n, M, N, t, x):
        prob = instantiate(name, **overrides)
        params = MlpParams(n=n, M=M, euler_steps=N, root_seed=11)
        x = np.array(x)
        tally = CostTally()
        want = recursive_node(prob, params.resolved_steps, M, 11, (0,), n, t, x, tally)
        if chunk_scalars is not None:
            # chunks of a row or two, so a node's paths are split across chunks
            monkeypatch.setattr(euler, "_CHUNK_SCALARS", chunk_scalars)
        got = estimate(prob, params, (0,), t, x)
        assert got.value == want
        assert got.cost == tally


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestEstimateMany:
    """A block of root seeds against one :func:`estimate` call per seed."""

    # negative seeds and seeds >= 2**63 address streams modulo 2**64
    SEEDS = [11, -3, 2**63 + 5, 0, 2**64 - 1, 7]

    @staticmethod
    def _assert_per_seed(got, prob, params, seeds, theta, t, x):
        """``got`` equals ``estimate`` at each seed's root, value bits and tally."""
        assert len(got) == len(seeds)
        roots = np.broadcast_to(t, (len(seeds),)), np.broadcast_to(x, (len(seeds), prob.d))
        for seed, est, t_i, x_i in zip(seeds, got, *roots):
            want = estimate(prob, dataclasses.replace(params, root_seed=seed), theta,
                            float(t_i), x_i)
            assert _bits(est.value) == _bits(want.value), seed
            assert est.cost == want.cost, seed

    @staticmethod
    def _mixed_roots(prob, t, x, count):
        """Per-seed roots: ``t``, ``T``, just below ``T`` and 0 in turn, and
        ``x`` shifted by a different amount per seed."""
        T = prob.T
        times = [[t, T, float(np.nextafter(T, 0.0)), 0.0][i % 4] for i in range(count)]
        return np.array(times), np.asarray(x) + 0.25 * np.arange(count)[:, None]

    @pytest.mark.parametrize("chunk_scalars", [None, 200])
    @pytest.mark.parametrize("name,overrides,n,M,N,t,x", WAVE_CASES + [
        ("heat-quadratic", {"d": 2}, 0, 3, None, 0.0, [0.1, 0.2]),  # n = 0
        ("linear-reaction", {"d": 1}, 3, 1, 4, 0.2, [0.3]),          # M = 1
    ])
    def test_matches_per_seed_estimate(self, monkeypatch, chunk_scalars, name, overrides,
                                       n, M, N, t, x):
        prob = instantiate(name, **overrides)
        params = MlpParams(n=n, M=M, euler_steps=N)
        x = np.array(x)
        if chunk_scalars is not None:
            monkeypatch.setattr(euler, "_CHUNK_SCALARS", chunk_scalars)
        got = estimate_many(prob, params, self.SEEDS, (0,), t, x)
        self._assert_per_seed(got, prob, params, self.SEEDS, (0,), t, x)
        # one root per seed, with roots at T and just below T in the block
        ts, xs = self._mixed_roots(prob, t, x, len(self.SEEDS))
        got = estimate_many(prob, params, self.SEEDS, (0,), ts, xs)
        self._assert_per_seed(got, prob, params, self.SEEDS, (0,), ts, xs)

    def test_root_label_and_empty_block(self):
        prob = instantiate("nonlinear-coeff-sine", d=2)
        params = MlpParams(n=2, M=3)
        got = estimate_many(prob, params, [4, 5], (5, -2), 0.3, np.zeros(2))
        self._assert_per_seed(got, prob, params, [4, 5], (5, -2), 0.3, np.zeros(2))
        assert estimate_many(prob, params, [], (0,), 0.3, np.zeros(2)) == []
        assert estimate_many(prob, params, [], (0,), np.zeros(0), np.zeros((0, 2))) == []
        from_iterator = estimate_many(prob, params, iter([4, 5]), (5, -2), 0.3, np.zeros(2))
        assert [_bits(est.value) for est in from_iterator] == [_bits(est.value) for est in got]

    @pytest.mark.parametrize("block_paths", [1, 200])
    def test_seed_blocks_change_no_value(self, monkeypatch, block_paths):
        # (3, 2) has 82 tree paths per seed: blocks of one seed, then of two,
        # and each block takes its own slice of the per-seed roots
        prob = instantiate("linear-reaction", d=1)
        params = MlpParams(n=3, M=2, euler_steps=8)
        ts, xs = self._mixed_roots(prob, 0.6, [0.2], len(self.SEEDS))
        monkeypatch.setattr(mlp, "_BLOCK_PATHS", block_paths)
        blocks = seed_blocks(params, self.SEEDS)
        assert [seed for block in blocks for seed in block] == self.SEEDS
        assert max(len(block) for block in blocks) == max(1, block_paths // 82)
        got = estimate_many(prob, params, self.SEEDS, (0,), ts, xs)
        self._assert_per_seed(got, prob, params, self.SEEDS, (0,), ts, xs)


class TestDeterminism:
    def test_repeated_calls_bit_identical(self):
        prob = instantiate("nonlinear-coeff-sine", kappa=0.5)
        params = MlpParams(n=2, M=3, root_seed=4)
        a = estimate(prob, params, (0,), 0.0, np.zeros(1))
        b = estimate(prob, params, (0,), 0.0, np.zeros(1))
        assert a.value == b.value
        assert a.cost == b.cost

    def test_distribution_invariant_across_labels(self):
        # same (t, x, n, M) under different root labels: same law
        prob = instantiate("heat-quadratic", d=1)
        values = {}
        for theta in [(0,), (1,)]:
            values[theta] = np.array([
                est.value for est in estimate_many(prob, MlpParams(n=2, M=2, euler_steps=4),
                                                   range(1000), theta, 0.0, np.zeros(1))
            ])
        assert stats.ks_2samp(values[(0,)], values[(1,)]).pvalue > 0.01


class TestStatistics:
    def test_heat_closed_form_recovery(self):
        # u(0, 0) = d*T = 1 for the pure diffusion with quadratic payout
        prob = instantiate("heat-quadratic", d=1)
        vals = np.array([
            est.value for est in estimate_many(prob, MlpParams(n=3, M=3), range(200), (0,),
                                               0.0, np.zeros(1))
        ])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) <= 3 * se

    def test_depth_one_mean_equals_terminal_expectation(self):
        # with a reaction term that vanishes at v = 0 the depth-1 mean is
        # exactly the terminal expectation d*T (identity diffusion is exact)
        prob = instantiate("linear-reaction", d=1)
        vals = np.array([
            est.value for est in estimate_many(prob, MlpParams(n=1, M=4), range(3000), (0,),
                                               0.0, np.zeros(1))
        ])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) <= 4 * se

    def test_rotated_sigma_has_the_law_of_the_diagonal_row(self):
        # a non-diagonal, non-affine sigma at x against the diagonal row at
        # Q^T x, on disjoint seeds: the two estimators have the same law
        rotated, Q = rotated_sine(10)
        x = np.full(10, 0.3)
        means, ses = [], []
        for prob, seeds, start in [(rotated, range(64), x),
                                   (instantiate("nonlinear-coeff-sine", d=10), range(64, 128),
                                    x @ Q)]:
            vals = np.array([est.value for est in estimate_many(
                prob, MlpParams(n=3, M=3), seeds, (0,), 0.0, start)])
            means.append(vals.mean())
            ses.append(vals.std(ddof=1) / math.sqrt(len(vals)))
        assert abs(means[0] - means[1]) <= 4 * math.hypot(*ses)


class TestCostLedger:
    def test_recursion_bound_base_cases(self):
        assert cost_recursion_bound(0, 3, 2, 27, (1, 1, 1, 1)) == 0.0
        assert cost_recursion_bound(-2, 3, 2, 27, (1, 1, 1, 1)) == 0.0

    def test_recursion_bound_hand_value(self):
        # n=1, M=1, N=1, d=1, unit weights:
        # 1*(1+1+1) + 1*((1+1) + 1 + 2 + 0 + 0) = 8
        assert cost_recursion_bound(1, 1, 1, 1, (1, 1, 1, 1)) == 8.0

    @pytest.mark.parametrize("n,M,N", [(200, 200, 1), (1, 400, 400**400), (2, 2, 10**400)],
                             ids=["M**k", "N=M**M", "N*d"])
    def test_recursion_bound_is_inf_past_the_float_range(self, n, M, N):
        # M**k or N * d too large for a float: inf, where it used to raise
        assert cost_recursion_bound(n, M, 1, N, (1, 1, 1, 1)) == math.inf

    @pytest.mark.parametrize("weights,pins", [
        ((1, 1, 1, 1), [
            ((1, 1, 1, 1), 8),
            ((3, 3, 10, 27), 76266),
            ((4, 4, 1, 256), 2527132),
            ((6, 3, 10, 4), 3177987),
            ((8, 8, 3, 256), 5446988228696),
            ((9, 8, 3, 16777216), 5.8731636311090319e+18),
            ((12, 6, 10, 46656), 7.0831527052798321e+18),
            ((20, 3, 1, 27), 8.6011812377974989e+17),
            ((40, 2, 10, 4), 3.6906285047895689e+27),
            ((60, 1, 3, 1), 5.5482926320255205e+23),
            ((100, 7, 1, 1), 4.7812278285918944e+116),
        ]),
        ((0.3, 1.7, 0.05, 2.5), [
            ((1, 1, 1, 1), 9.3499999999999996),
            ((3, 3, 10, 27), 33096.75),
            ((4, 4, 1, 256), 2530950.7999999998),
            ((6, 3, 10, 4), 1496112.6000000001),
            ((8, 8, 3, 256), 3548169893565.5991),
            ((9, 8, 3, 16777216), 3.817556485963094e+18),
            ((12, 6, 10, 46656), 3.0264643648424576e+18),
            ((20, 3, 1, 27), 8.7255941157128294e+17),
            ((40, 2, 10, 4), 1.7448223887090718e+27),
            ((60, 1, 3, 1), 5.2819693422433831e+23),
            ((100, 7, 1, 1), 5.6497493824776147e+116),
        ]),
    ], ids=["unit", "fractional"])
    def test_recursion_bound_is_pinned(self, weights, pins):
        # 17-digit values of the memoized recursion (the reference below); the
        # deeper half lies above 2^53, where integer-valued floats round
        for (n, M, d, N), want in pins:
            assert cost_recursion_bound(n, M, d, N, weights) == want, (n, M, d, N)

    def test_recursion_bound_matches_the_recursion(self):
        # the recursion as the paper states it, memoized: every float
        # operation in the same order, so the loop matches it bit for bit
        def recursion(n, M, d, N, weights):
            w_draw, w_step, w_g, w_f = (float(w) for w in weights)

            @functools.lru_cache(maxsize=None)
            def rec(k):
                if k <= 0:
                    return 0.0
                total = float(M**k) * (N * d * w_draw + N * w_step + w_g)
                for level in range(k):
                    total += float(M ** (k - level)) * (
                        (N * d + 1) * w_draw + N * w_step + 2.0 * w_f + rec(level)
                        + rec(level - 1))
                return total

            return rec(n)

        for weights in [(1, 1, 1, 1), (0.3, 1.7, 0.05, 2.5), (1e-3, 1, 7.5, 0)]:
            for n, M, d, N in itertools.product(range(9), range(1, 9), (1, 3, 10),
                                                (1, 4, 27, 256)):
                assert (cost_recursion_bound(n, M, d, N, weights)
                        == recursion(n, M, d, N, weights)), (n, M, d, N, weights)

    @pytest.mark.parametrize("M", [1, 2])
    def test_recursion_bound_stops_at_inf(self, M):
        # at M = 1 the bound is inf from about depth 1000 on; depths past it
        # cost nothing more
        start = time.perf_counter()
        assert cost_recursion_bound(100_000, M, 1, 1, (1, 1, 1, 1)) == math.inf
        assert time.perf_counter() - start < 1.0

    def test_recursion_bound_with_zero_weights_is_zero_at_once(self):
        # every depth costs 0, so the depths are not walked
        start = time.perf_counter()
        assert cost_recursion_bound(100_000, 1, 1, 1, (0, 0, 0, 0)) == 0.0
        assert time.perf_counter() - start < 1.0
        assert cost_recursion_bound(4, 3, 2, 27, (0.0, -0.0, 0, 0)) == 0.0

    def test_tallied_cost_below_recursion_bound(self):
        for prob in (instantiate("heat-quadratic", d=2),
                     instantiate("nonlinear-coeff-sine", kappa=0.5)):
            for n in range(4):
                for M in range(1, 4):
                    params = MlpParams(n=n, M=M, root_seed=17)
                    res = estimate(prob, params, (0,), 0.0, np.zeros(prob.d))
                    bound = cost_recursion_bound(n, M, prob.d, params.resolved_steps,
                                                 (1, 1, 1, 1))
                    assert res.cost.weighted(1, 1, 1, 1) <= bound

    def test_tally_monotone_in_depth_and_base(self):
        prob = instantiate("heat-quadratic", d=1)
        def weighted(n, M):
            res = estimate(prob, MlpParams(n=n, M=M, euler_steps=8, root_seed=3),
                           (0,), 0.0, np.zeros(1))
            return res.cost.weighted(1, 1, 1, 1)
        for M in (1, 2, 3):
            costs = [weighted(n, M) for n in range(1, 4)]
            assert costs[0] <= costs[1] <= costs[2]
        for n in (1, 2, 3):
            costs = [weighted(n, M) for M in range(1, 4)]
            assert costs[0] <= costs[1] <= costs[2]

    def test_terminal_time_skips_level_terms(self):
        prob = instantiate("linear-reaction", d=1)
        res = estimate(prob, MlpParams(n=2, M=2, root_seed=1), (0,), 1.0,
                       np.array([0.7]))
        # at t = T the estimator reduces to the terminal condition exactly
        assert res.value == pytest.approx(0.49, rel=1e-15)
        assert res.cost.f_evals == 0 and res.cost.uniforms == 0


def _exactly(message: str) -> str:
    """A ``pytest.raises`` pattern matching ``message`` and nothing else."""
    return "^" + re.escape(message) + "$"


class TestValidation:
    @pytest.mark.parametrize("t,message", [
        (1.5, "t must lie in [0, 1.0], got 1.5"),
        ([0.0, 1.5, 2.0], "t[1] must lie in [0, 1.0], got 1.5"),
        ([0.0, 1.0, math.nan], "t[2] must lie in [0, 1.0], got nan"),
        ([0.5, 0.5], "t must be a number or have shape (3,), got shape (2,)"),
        ([[0.5, 0.5, 0.5]], "t must be a number or have shape (3,), got shape (1, 3)"),
    ])
    def test_time_out_of_range(self, t, message):
        prob = instantiate("heat-quadratic")
        with pytest.raises(ValueError, match=_exactly("t must lie in [0, 1.0], got 1.5")):
            estimate(prob, MlpParams(n=1, M=1), (0,), 1.5, np.zeros(1))
        # per seed, the message names the first bad row
        with pytest.raises(ValueError, match=_exactly(message)):
            estimate_many(prob, MlpParams(n=1, M=1), [0, 1, 2], (0,), t, np.zeros(1))

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((1, 2)), np.zeros((3, 3)),
                                   np.zeros((3, 2, 1))])
    def test_state_shape_mismatch(self, x):
        # estimate takes one (d,) point, estimate_many also one (d,) row per seed
        prob = instantiate("heat-quadratic", d=2)
        with pytest.raises(ValueError, match=_exactly(f"x must have shape (2,), got {x.shape}")):
            estimate(prob, MlpParams(n=1, M=1), (0,), 0.0, x)
        with pytest.raises(ValueError,
                           match=_exactly(f"x must have shape (2,) or (3, 2), got {x.shape}")):
            estimate_many(prob, MlpParams(n=1, M=1), [0, 1, 2], (0,), 0.0, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_rejected(self, bad):
        prob = instantiate("heat-quadratic", d=2)
        with pytest.raises(ValueError, match="finite"):
            estimate(prob, MlpParams(n=1, M=1), (0,), 0.0, np.array([0.0, bad]))
        rows = np.zeros((3, 2))
        rows[1, 1] = bad
        with pytest.raises(ValueError, match=_exactly(f"x[1] must be finite, got {rows[1]}")):
            estimate_many(prob, MlpParams(n=1, M=1), [0, 1, 2], (0,), 0.0, rows)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("theta", [(2.7,), (0, 1.0), (True,)])
    def test_non_integer_label_rejected(self, theta, n):
        # at every depth, depth 0 included, whose estimate draws nothing
        prob = instantiate("heat-quadratic")
        with pytest.raises(TypeError, match="integers"):
            estimate(prob, MlpParams(n=n, M=2), theta, 0.0, np.zeros(1))

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_label_rejected(self, n):
        prob = instantiate("heat-quadratic")
        with pytest.raises(ValueError, match="nonempty"):
            estimate(prob, MlpParams(n=n, M=2), (), 0.0, np.zeros(1))

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("seed", [1.0, True, "3", None])
    def test_non_integer_seed_rejected(self, seed, n):
        prob = instantiate("heat-quadratic")
        with pytest.raises(TypeError, match="integers"):
            estimate_many(prob, MlpParams(n=n, M=2), [0, seed], (0,), 0.0, np.zeros(1))

    @pytest.mark.parametrize("t", [True, np.False_, np.array([False, True])])
    def test_bool_time_rejected(self, t):
        prob = instantiate("heat-quadratic")
        with pytest.raises(TypeError, match=re.escape(f"t must be a number, got {t!r}")):
            estimate_many(prob, MlpParams(n=1, M=2), [0, 1], (0,), t, np.zeros(1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MlpParams(n=-1, M=2)
        with pytest.raises(ValueError):
            MlpParams(n=1, M=0)
        assert MlpParams(n=2, M=3).resolved_steps == 27
        assert MlpParams(n=2, M=3, euler_steps=12).resolved_steps == 12

    def test_default_steps_past_the_float_range_are_not_built(self):
        assert MlpParams(n=1, M=143).resolved_steps == 143**143  # 1.6e308
        assert MlpParams(n=1, M=144, euler_steps=5).resolved_steps == 5
        start = time.perf_counter()
        for M in (144, 2_000_000, 10**20):
            with pytest.raises(OverflowError, match=f"past the float range at M = {M}"):
                MlpParams(n=1, M=M).resolved_steps
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("field", ["n", "M", "euler_steps", "root_seed"])
    @pytest.mark.parametrize("bad", [True, 1.5, 2.0, np.float64(2.0), "2"])
    def test_non_integer_params_rejected(self, field, bad):
        fields = {"n": 1, "M": 2, "euler_steps": 4, "root_seed": 0, field: bad}
        with pytest.raises(TypeError, match=f"MlpParams.{field} must be an integer"):
            MlpParams(**fields)

    def test_numpy_integer_params_accepted(self):
        params = MlpParams(n=np.int64(2), M=np.int32(2), euler_steps=np.uint8(4),
                           root_seed=np.int64(-5))
        prob = instantiate("heat-quadratic")
        got = estimate(prob, params, (0,), 0.0, np.zeros(1))
        want = estimate(prob, MlpParams(n=2, M=2, euler_steps=4, root_seed=-5), (0,), 0.0,
                        np.zeros(1))
        assert _bits(got.value) == _bits(want.value)
        assert got.cost == want.cost


@pytest.fixture
def generated(monkeypatch):
    """Reads the ``(key, block)`` pairs that the Philox kernel and the native
    generator computed while the test ran, in order.  A native keying's
    blocks are read off its generator's counter, one past the last block it
    computed, when the next keying starts or the pairs are read."""
    pairs, keyed = [], []
    philox_blocks, generator_at = rng.philox_blocks, rng._generator_at

    def close():
        if keyed:
            key, first, gen = keyed.pop()
            pairs.extend((key, b) for b in range(first, int(gen.bit_generator.state["state"]
                                                                ["counter"][0])))

    def kernel(keys, blocks):
        pairs.extend(zip(map(tuple, keys.tolist()), np.asarray(blocks).tolist()))
        return philox_blocks(keys, blocks)

    def native(key, *args):
        close()
        gen = generator_at(key, *args)
        # a block already in the buffer was computed at keying
        state = gen.bit_generator.state
        keyed.append((tuple(key), int(state["state"]["counter"][0]) - (state["buffer_pos"] < 4),
                      gen))
        return gen

    monkeypatch.setattr(rng, "philox_blocks", kernel)
    monkeypatch.setattr(rng, "_generator_at", native)

    def read() -> list:
        close()
        return pairs

    return read


@pytest.fixture
def batch_widths(monkeypatch):
    """The path count of every ``simulate_batch`` call the estimator made while the
    test ran, one width per call, in order."""
    widths = []

    def recorded(problem, steps, keys, *args):
        widths.append(len(keys))
        return euler.simulate_batch(problem, steps, keys, *args)

    monkeypatch.setattr(mlp, "simulate_batch", recorded)
    return widths


class TestEachBlockOnce:
    """Within an estimate or a seed block, no ``(key, block)`` pair of Philox
    is computed twice: block 0 once per depth batch, every later block once by
    the draws."""

    @pytest.mark.parametrize("name, overrides, n, M, N, x, seeds, wide", [
        ("linear-reaction", {}, 2, 2, 8, 0.3, [5], False),
        ("nonlinear-coeff-sine", {"kappa": 0.5}, 3, 4, 64, 0.0, [0], True),
        ("scaled-bs", {"d": 8}, 2, 8, 64, 1.0, [0], True),
        ("heat-quadratic", {}, 3, 3, 27, 0.0, range(1000, 1064), True),
    ], ids=["narrow", "sine-d1", "bs-d8", "heat-seed-block"])
    def test_no_block_is_computed_twice(self, generated, batch_widths, name, overrides, n, M,
                                        N, x, seeds, wide):
        prob = instantiate(name, **overrides)
        params = MlpParams(n=n, M=M, euler_steps=N)
        assert len(seed_blocks(params, seeds)) == 1
        estimate_many(prob, params, seeds, (0,), 0.0, np.full(prob.d, x))
        pairs = generated()
        assert pairs and len(set(pairs)) == len(pairs)
        # depth batches of fewer than _KERNEL_MIN_STREAMS streams read natively only
        assert (max(batch_widths) >= rng._KERNEL_MIN_STREAMS) == wide


def _tree_paths(n: int, M: int) -> int:
    """Terminal paths plus level samples of the full depth-``n`` tree, counted
    node by node."""
    if n <= 0:
        return 0
    return M**n + sum(M ** (n - level) * (1 + _tree_paths(level, M) + _tree_paths(level - 1, M))
                      for level in range(n))


class TestOneBatchPerDepth:
    """The forest's shape: one ``simulate_batch`` call per recursion depth and
    seed block, and blocks sized by the tree's path count."""

    @pytest.mark.parametrize("n,M,t", [(1, 3, 0.0), (3, 2, 0.0), (4, 2, 0.5), (3, 3, 1.0)])
    def test_at_most_n_calls_per_seed_block(self, monkeypatch, batch_widths, n, M, t):
        prob = instantiate("linear-reaction", d=1)
        params = MlpParams(n=n, M=M, euler_steps=4)
        seeds = list(range(7))
        monkeypatch.setattr(mlp, "_BLOCK_PATHS", 3 * _tree_paths(n, M))
        blocks = seed_blocks(params, seeds)
        assert [len(block) for block in blocks] == [3, 3, 1]
        got = estimate_many(prob, params, seeds, (0,), t, np.zeros(1))
        assert 0 < len(batch_widths) <= n * len(blocks)
        # at t = 0 no sub-estimate of these seeds lands at T, so every path of
        # the tree is simulated
        if t == 0.0:
            assert sum(batch_widths) == len(seeds) * _tree_paths(n, M)
            assert [est.cost.uniforms + est.cost.g_evals for est in got] == [
                _tree_paths(n, M)] * len(seeds)

    def test_block_size_from_the_closed_form_path_count(self, monkeypatch):
        # blocks of two seeds at twice the path count and of one just below,
        # so the count seed_blocks uses is exactly the reference's
        for n, M in itertools.product(range(1, 6), range(1, 6)):
            paths = _tree_paths(n, M)
            for block_paths, size in [(2 * paths, 2), (2 * paths - 1, 1)]:
                monkeypatch.setattr(mlp, "_BLOCK_PATHS", block_paths)
                assert max(map(len, seed_blocks(MlpParams(n=n, M=M), range(5)))) == size, (n, M)
