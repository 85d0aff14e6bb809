"""Estimator semantics: flat-loop reference, cost ledger, statistics."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from mlpicard import euler, mlp
from mlpicard.mlp import (
    CostTally,
    MlpParams,
    cost_recursion_bound,
    estimate,
    estimate_many,
    seed_blocks,
)
from mlpicard.problems import instantiate
from mlpicard.rng import stream_for

from helpers import draw_gaussians, draw_uniform, recursive_node, update_times

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
        st = stream_for(seed, theta + (0, -i))
        draw_uniform(st)  # discarded
        y = _flat_gbm_path(st, t, T, steps, T, x0)
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
        assert res.cost.as_dict() == CostTally().as_dict()


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
                st = stream_for(13, theta + (0, -i))
                draw_uniform(st)
                y = path_from(st, t, 1.0, x)
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
    """The level-synchronous evaluation against the depth-first recursion in
    helpers, which makes one ``simulate_batch`` call per path set."""

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
        assert got.cost.as_dict() == tally.as_dict()


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestEstimateMany:
    """A block of root seeds against one :func:`estimate` call per seed."""

    # negative seeds and seeds >= 2**63 address streams modulo 2**64
    SEEDS = [11, -3, 2**63 + 5, 0, 2**64 - 1, 7]

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
        assert len(got) == len(self.SEEDS)
        for seed, est in zip(self.SEEDS, got):
            want = estimate(prob, dataclasses.replace(params, root_seed=seed), (0,), t, x)
            assert _bits(est.value) == _bits(want.value), seed
            assert est.cost.as_dict() == want.cost.as_dict(), seed

    def test_root_label_and_empty_block(self):
        prob = instantiate("nonlinear-coeff-sine", d=2)
        params = MlpParams(n=2, M=3)
        got = estimate_many(prob, params, [4, 5], (5, -2), 0.3, np.zeros(2))
        for seed, est in zip([4, 5], got):
            want = estimate(prob, dataclasses.replace(params, root_seed=seed), (5, -2), 0.3,
                            np.zeros(2))
            assert _bits(est.value) == _bits(want.value)
            assert est.cost.as_dict() == want.cost.as_dict()
        assert estimate_many(prob, params, [], (0,), 0.3, np.zeros(2)) == []
        from_iterator = estimate_many(prob, params, iter([4, 5]), (5, -2), 0.3, np.zeros(2))
        assert [_bits(est.value) for est in from_iterator] == [_bits(est.value) for est in got]

    @pytest.mark.parametrize("block_paths", [1, 200])
    def test_seed_blocks_change_no_value(self, monkeypatch, block_paths):
        # (3, 2) has 82 tree paths per seed: blocks of one seed, then of two
        prob = instantiate("linear-reaction", d=1)
        params = MlpParams(n=3, M=2, euler_steps=8)
        want = estimate_many(prob, params, self.SEEDS, (0,), 0.6, np.array([0.2]))
        monkeypatch.setattr(mlp, "_BLOCK_PATHS", block_paths)
        blocks = seed_blocks(params, self.SEEDS)
        assert [seed for block in blocks for seed in block] == self.SEEDS
        assert max(len(block) for block in blocks) == max(1, block_paths // 82)
        got = estimate_many(prob, params, self.SEEDS, (0,), 0.6, np.array([0.2]))
        for a, b in zip(got, want):
            assert _bits(a.value) == _bits(b.value)
            assert a.cost.as_dict() == b.cost.as_dict()


class TestDeterminism:
    def test_repeated_calls_bit_identical(self):
        prob = instantiate("nonlinear-coeff-sine", kappa=0.5)
        params = MlpParams(n=2, M=3, root_seed=4)
        a = estimate(prob, params, (0,), 0.0, np.zeros(1))
        b = estimate(prob, params, (0,), 0.0, np.zeros(1))
        assert a.value == b.value
        assert a.cost.as_dict() == b.cost.as_dict()

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


class TestCostLedger:
    def test_recursion_bound_base_cases(self):
        assert cost_recursion_bound(0, 3, 2, 27, (1, 1, 1, 1)) == 0.0
        assert cost_recursion_bound(-2, 3, 2, 27, (1, 1, 1, 1)) == 0.0

    def test_recursion_bound_hand_value(self):
        # n=1, M=1, N=1, d=1, unit weights:
        # 1*(1+1+1) + 1*((1+1) + 1 + 2 + 0 + 0) = 8
        assert cost_recursion_bound(1, 1, 1, 1, (1, 1, 1, 1)) == 8.0

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


class TestValidation:
    def test_time_out_of_range(self):
        prob = instantiate("heat-quadratic")
        with pytest.raises(ValueError):
            estimate(prob, MlpParams(n=1, M=1), (0,), 1.5, np.zeros(1))

    def test_state_shape_mismatch(self):
        prob = instantiate("heat-quadratic", d=2)
        with pytest.raises(ValueError):
            estimate(prob, MlpParams(n=1, M=1), (0,), 0.0, np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_rejected(self, bad):
        prob = instantiate("heat-quadratic", d=2)
        with pytest.raises(ValueError, match="finite"):
            estimate(prob, MlpParams(n=1, M=1), (0,), 0.0, np.array([0.0, bad]))

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

    @pytest.mark.parametrize("seed", [1.0, True, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        prob = instantiate("heat-quadratic")
        with pytest.raises(TypeError, match="integers"):
            estimate_many(prob, MlpParams(n=1, M=2), [0, seed], (0,), 0.0, np.zeros(1))

    @pytest.mark.parametrize("t", [True, np.False_])
    def test_bool_time_rejected(self, t):
        prob = instantiate("heat-quadratic")
        with pytest.raises(TypeError, match=f"t must be a number, got {t!r}"):
            estimate_many(prob, MlpParams(n=1, M=2), [0], (0,), t, np.zeros(1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MlpParams(n=-1, M=2)
        with pytest.raises(ValueError):
            MlpParams(n=1, M=0)
        assert MlpParams(n=2, M=3).resolved_steps == 27
        assert MlpParams(n=2, M=3, euler_steps=12).resolved_steps == 12

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
        assert got.cost.as_dict() == want.cost.as_dict()
