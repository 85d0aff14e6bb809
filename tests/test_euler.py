"""Path simulation: grid mechanics, draw accounting, exactness, strong rate."""

import dataclasses
import math
import re
import threading

import numpy as np
import pytest

from mlpicard import euler
from mlpicard.bounds import lyapunov_phi_batch
from mlpicard.euler import DomainError, _plan, _step_sizes, lyapunov_check, simulate_batch
from mlpicard.problems import Problem, instantiate
from mlpicard.rng import StreamBatch, keys_at, stream_for

from helpers import (
    draw_gaussians,
    draw_uniform,
    fill_gaussians,
    skip_uniform,
    stacked,
    update_times,
    update_times_reference,
)


def _path_stream(seed, theta):
    st = stream_for(seed, theta)
    draw_uniform(st)
    return st


class TestUpdateTimes:
    def test_interior_times_then_endpoint(self):
        assert update_times(0.3, 0.9, 4, 1.0) == [0.5, 0.75, 0.9]

    def test_endpoint_on_grid_gets_full_final_step(self):
        assert update_times(0.0, 0.75, 4, 1.0) == [0.25, 0.5, 0.75]

    def test_start_on_grid(self):
        assert update_times(0.25, 1.0, 4, 1.0) == [0.5, 0.75, 1.0]

    def test_full_horizon_has_n_steps(self):
        assert update_times(0.0, 1.0, 4, 1.0) == [0.25, 0.5, 0.75, 1.0]

    def test_empty_when_start_equals_end(self):
        assert update_times(0.6, 0.6, 8, 1.0) == []

    def test_same_cell_single_step(self):
        assert update_times(0.26, 0.49, 4, 1.0) == [0.49]

    def test_domain_errors(self):
        for t, s in [(0.5, 0.4), (0.5, 1.1), (-0.1, 0.5)]:
            with pytest.raises(DomainError):
                update_times_reference(t, s, 4, 1.0)
            with pytest.raises(DomainError):
                update_times(t, s, 4, 1.0)
        with pytest.raises(DomainError):
            update_times(math.nan, 0.5, 4, 1.0)
        with pytest.raises(DomainError):
            simulate_batch(instantiate("heat-quadratic"), 4,
                           _path_stream(1, (1,)), np.array([0.2]), np.zeros(1), [1.5])

    def test_count_is_pure_in_time_arguments(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            t = float(rng.uniform(0, 1))
            s = float(rng.uniform(t, 1))
            n_grid = int(rng.integers(1, 40))
            k = len(update_times(t, s, n_grid, 1.0))
            assert k == len(update_times(t, s, n_grid, 1.0))
            assert k <= n_grid + 1


def _planner_cases(rng, T, N, size):
    """``size`` pairs 0 <= t <= s <= T: random, on grid points, one ulp off
    grid points, ``s == t`` and ``s == T``."""
    on_grid = lambda k: min(k * T / N, T)  # noqa: E731
    ts, ss = [], []
    for _ in range(size):
        kind = int(rng.integers(0, 7))
        k = int(rng.integers(0, N + 1))
        t = on_grid(k) if kind in (1, 2) else float(rng.uniform(0.0, T))
        if kind == 1:
            s = max(on_grid(int(rng.integers(k, N + 1))), t)
        elif kind == 6:
            t = max(float(np.nextafter(on_grid(k), -1.0)), 0.0)
            s = min(float(np.nextafter(on_grid(int(rng.integers(k, N + 1))), 2 * T)), T)
        elif kind == 3:
            s = t
        elif kind == 4:
            s = T
        elif kind == 5:
            t = 0.0
            s = float(rng.uniform(0.0, T))
        else:
            s = float(rng.uniform(t, T))
        ts.append(t)
        ss.append(s)
    return ts, ss


class TestPlannerMatchesScalarLoop:
    """The vectorized planner against the one-path scalar loop in helpers."""

    @pytest.mark.parametrize("T", [1.0, 0.3, 0.7])
    def test_identical_float_lists(self, T):
        rng = np.random.default_rng(int(T * 10))
        grids = [1, 2, 3, 7, 27, 256, 1000] + [int(n) for n in rng.integers(1, 1001, size=5)]
        pairs = 0
        for N in grids:
            ts, ss = _planner_cases(rng, T, N, 300)
            first, counts = _plan(np.array(ts), np.array(ss), N, T)
            width = int(counts.max())
            dts = _step_sizes(first, counts, np.array(ts), np.array(ss), width, N, T)
            for i, (t, s) in enumerate(zip(ts, ss)):
                want = update_times_reference(t, s, N, T)
                assert dts[i, : counts[i]].tolist() == np.diff([t] + want).tolist(), (t, s, N, T)
                assert update_times(t, s, N, T) == want, (t, s, N, T)
            pairs += len(ts)
        assert pairs * 3 >= 10_000


def _mixed_paths(prob, P, seed):
    """``P`` paths with mixed starts and ends, the first ten with no step."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, prob.T, P)
    ends = np.where(rng.random(P) < 0.2, prob.T, rng.uniform(t, prob.T))
    ends[:10] = t[:10]
    return t, rng.uniform(0.5, 1.5, (P, prob.d)), ends


def _path_batch(P, seed, drawn=True):
    """Streams ``(seed, (i,))``; the even rows draw their uniform if ``drawn``,
    the others skip it."""
    streams = StreamBatch(keys_at(seed, (), np.arange(P, dtype="<i8").tobytes(), 8))
    streams.uniforms((np.arange(P) % 2 == 0) & drawn)
    return streams


class TestSimulate:
    @pytest.mark.parametrize("steps", [0, -1])
    def test_grid_without_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            simulate_batch(instantiate("heat-quadratic"), steps, _path_stream(1, (1,)), 0.0,
                           np.zeros(1), np.array([1.0]))

    @pytest.mark.parametrize("steps", [True, 2.5, np.float64(4.0)])
    def test_non_integer_steps_rejected_before_drawing(self, steps, monkeypatch):
        prob, stream = instantiate("heat-quadratic"), _path_stream(1, (1,))
        monkeypatch.setattr(euler, "keys_at", None)  # any keying or draw would fail here
        monkeypatch.setattr(euler, "draw_uniforms", None)
        message = re.escape(f"steps must be an integer, got {steps!r}")
        with pytest.raises(TypeError, match=message):
            simulate_batch(prob, steps, stream, 0.0, np.zeros(1), np.array([1.0]))
        with pytest.raises(TypeError, match=message):
            lyapunov_check(prob, steps, 0.0, np.zeros(1), 1.0, paths=4, seed=0)

    def test_identity_at_zero_elapsed(self):
        prob = instantiate("scaled-bs")
        st = _path_stream(0, (1,))
        states, counts = simulate_batch(prob, 16, st, 0.4,
                                        np.array([1.5]), np.array([0.4]))
        assert counts[0] == 0 and st.cursors[0] == 1  # nothing drawn after the uniform
        assert np.array_equal(states[0], np.array([1.5]))

    def test_gaussian_consumption_is_pure_in_plan(self):
        prob = instantiate("nonlinear-coeff-sine", kappa=0.5)
        N = 8
        for seed in (1, 2):
            st = _path_stream(seed, (4, seed))
            _, counts = simulate_batch(prob, N, st, 0.13, np.array([0.2]), np.array([0.77]))
            assert counts[0] == len(update_times(0.13, 0.77, 8, prob.T))
            assert st.cursors[0] == 1 + counts[0] * prob.d

    def test_constant_coefficients_match_direct_formula_bitwise(self):
        # nontrivial constant drift and diagonal diffusion, d = 2
        mu0 = np.array([0.3, -0.7])
        sig0 = np.array([1.1, 0.8])
        prob = Problem(
            name="const-test", d=2, T=1.0,
            drift=lambda x: np.broadcast_to(mu0, x.shape),
            diffusion=lambda x: np.broadcast_to(sig0, x.shape),
            terminal=lambda x: np.sum(x, axis=-1),
            nonlinearity=lambda t, x, v: np.zeros_like(v),
            lip_f=0.0, coeff_lip=4.0, growth_b=2.0, growth_beta=1.0,
            growth_p=2.0, lyapunov_a=1.0, constant_coefficients=(mu0, sig0),
        )
        t, s = 0.15, 0.85
        x = np.array([0.5, -0.25])
        N = 8
        states, counts = simulate_batch(prob, N, _path_stream(9, (3, 3)), t, x,
                                        np.array([s]))

        # step-by-step recurrence on the shared draws
        plan = update_times(t, s, 8, 1.0)
        dts = np.diff(np.asarray([t] + plan))
        z = draw_gaussians(_path_stream(9, (3, 3)), len(plan) * 2).reshape(len(plan), 2)
        expected = x
        for dt, inc in zip(dts, np.sqrt(dts)[:, None] * z):
            expected = expected + (mu0 * dt + sig0 * inc)
        assert np.array_equal(states[0], expected)
        assert counts[0] == len(plan)

    def test_constant_fastpath_agrees_with_general_stepper(self):
        # constant_coefficients selects no separate update: same paths bit for bit
        prob = instantiate("heat-quadratic", d=3)
        stripped = Problem(**{**prob.__dict__, "constant_coefficients": None})
        N = 16
        x = np.array([0.1, -0.2, 0.3])
        end = np.array([1.0])
        fast, fast_steps = simulate_batch(prob, N, _path_stream(5, (2,)), 0.0, x, end)
        slow, slow_steps = simulate_batch(stripped, N, _path_stream(5, (2,)), 0.0, x, end)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast_steps, slow_steps)

    def test_frozen_coefficient_argument_is_last_grid_state(self):
        # instrumented trace on N=4: drift must be evaluated at the states
        # frozen at t and at each interior grid time, never at s
        base = instantiate("nonlinear-coeff-sine", kappa=0.5)
        seen = []

        def recording_drift(x):
            seen.append(np.array(x, copy=True))
            return base.drift(x)

        probed = dataclasses.replace(base, drift=recording_drift)
        t, s = 0.1, 0.65
        _, counts = simulate_batch(probed, 4, _path_stream(21, (8,)), t,
                                   np.array([0.4]), np.array([s]))
        plan = update_times(t, s, 4, 1.0)
        assert plan == [0.25, 0.5, 0.65]
        assert len(seen) == 3  # frozen at t, 0.25, 0.5

        # the last frozen state equals the path value at max{t, n T/N} = 0.5,
        # reproduced by an identically seeded shorter simulation
        partial, _ = simulate_batch(base, 4, _path_stream(21, (8,)), t,
                                    np.array([0.4]), np.array([0.5]))
        assert np.array_equal(seen[-1][0], partial[0])
        assert counts[0] == 3

    def test_batch_matches_single_paths(self):
        prob = instantiate("scaled-bs")
        N = 8
        ends = np.array([0.3, 0.7, 1.0])
        streams = stacked([_path_stream(6, (1, i)) for i in range(3)])
        states, counts = simulate_batch(prob, N, streams, 0.1, np.array([1.0]), ends)
        for i in range(len(ends)):
            single, single_count = simulate_batch(prob, N, _path_stream(6, (1, i)), 0.1,
                                                  np.array([1.0]), ends[i:i + 1])
            assert np.array_equal(states[i], single[0])
            assert counts[i] == single_count[0]

    def test_chunk_size_changes_no_value(self, monkeypatch):
        prob = instantiate("scaled-bs", d=8)
        P, N = 320, 256
        t, x, ends = _mixed_paths(prob, P, 5)

        def run():
            streams = _path_batch(P, 3)
            states, counts = simulate_batch(prob, N, streams, t, x, ends)
            return states, counts, streams.cursors

        want = run()  # the default
        # one row per chunk, and 51 rows per full-length chunk
        for chunk_scalars in (200, 1 << 17):
            monkeypatch.setattr(euler, "_CHUNK_SCALARS", chunk_scalars)
            for a, b in zip(run(), want):
                assert np.array_equal(a, b)


    def test_every_path_of_zero_length(self):
        prob = instantiate("scaled-bs", d=3)
        t = np.array([0.0, 0.4, 1.0])
        first, counts = _plan(t, t, 8, prob.T)
        assert _step_sizes(first, counts, t, t, 0, 8, prob.T).shape == (3, 0)
        streams = _path_batch(3, 4)
        x = np.arange(9.0).reshape(3, 3)
        states, counts = simulate_batch(prob, 8, streams, t, x, t)
        assert np.array_equal(states, x) and not counts.any()
        assert np.array_equal(streams.cursors, _path_batch(3, 4).cursors)

    def test_coefficients_returning_their_argument(self, monkeypatch):
        # drift and diffusion hand back the states being stepped, so an
        # update that wrote before it read would change the path
        prob = dataclasses.replace(instantiate("scaled-bs", d=2),
                                   drift=lambda y: y, diffusion=lambda y: y)
        P, N = 60, 16
        t, x, ends = _mixed_paths(prob, P, 9)
        monkeypatch.setattr(euler, "_CHUNK_SCALARS", 10 * (N + 1) * (prob.d + 2))
        states, counts = simulate_batch(prob, N, _path_batch(P, 13), t, x, ends)
        singles = _path_batch(P, 13)
        for i in range(P):
            row = np.array([i])
            one, _ = simulate_batch(prob, N, singles[row], t[row], x[row], ends[row])
            assert np.array_equal(one[0], states[i])
            # the flat recurrence on the same draws
            dts = np.diff([t[i]] + update_times(t[i], ends[i], N, prob.T))
            z = np.zeros((1, counts[i] * prob.d))
            fill_gaussians(_path_batch(P, 13)[row], counts[row] * prob.d, z)
            y = x[i]
            for dt, inc in zip(dts, np.sqrt(dts)[:, None] * z.reshape(-1, prob.d)):
                y = y + (y * dt + y * inc)
            assert np.array_equal(y, states[i])


class TestPipeline:
    """Chunk k + 1 is drawn and mapped to Gaussians while chunk k is stepped."""

    @pytest.mark.parametrize("name, d", [("scaled-bs", 8), ("nonlinear-coeff-sine", 3)])
    def test_pipelined_chunks_equal_one_row_calls(self, name, d, monkeypatch):
        prob = instantiate(name, d=d)
        seen = set()

        def on_caller(fn):
            def wrapped(*args):
                seen.add(threading.get_ident())
                return fn(*args)
            return wrapped

        probed = dataclasses.replace(prob, drift=on_caller(prob.drift),
                                     diffusion=on_caller(prob.diffusion))
        chunks = []
        draw = euler.draw_uniforms
        monkeypatch.setattr(euler, "draw_uniforms",
                            lambda streams, *a: chunks.append(len(streams)) or draw(streams, *a))
        P, N = 320, 64
        t, x, ends = _mixed_paths(prob, P, 7)
        # about 40 full-length rows per chunk
        monkeypatch.setattr(euler, "_CHUNK_SCALARS", 40 * (N + 1) * (d + 2))
        streams = _path_batch(P, 11)
        states, counts = simulate_batch(probed, N, streams, t, x, ends)
        assert len(chunks) >= 3 and sum(chunks) == P
        assert seen == {threading.get_ident()}

        singles = _path_batch(P, 11)
        for i in range(P):
            row = np.array([i])
            one, one_count = simulate_batch(prob, N, singles[row], t[row], x[row], ends[row])
            assert np.array_equal(one[0], states[i])
            assert one_count[0] == counts[i]
        assert np.array_equal(singles.cursors, streams.cursors)

    def test_helper_is_joined_on_return_and_on_raise(self, monkeypatch):
        prob = instantiate("scaled-bs", d=8)
        P, N = 300, 64
        t, x, ends = _mixed_paths(prob, P, 8)
        threads = []
        calls = []

        def drift(y):
            threads.append(threading.active_count())
            calls.append(len(y))
            if fail_after and len(calls) > fail_after:
                raise RuntimeError("drift failed")
            return prob.drift(y)

        probed = dataclasses.replace(prob, drift=drift)
        before = threading.active_count()
        fail_after = 0
        # one chunk at the default size: mapped inline, no helper
        simulate_batch(probed, N, _path_batch(P, 12), t, x, ends)
        assert set(threads) == {before}
        threads.clear()
        monkeypatch.setattr(euler, "_CHUNK_SCALARS", 40 * (N + 1) * (prob.d + 2))
        _, counts = simulate_batch(probed, N, _path_batch(P, 12), t, x, ends)
        assert threading.active_count() == before
        assert max(threads) == before + 1  # the helper ran beside the stepping loop
        # the first chunk takes as many steps as its longest path
        fail_after = int(counts.max())
        calls.clear()
        with pytest.raises(RuntimeError, match="drift failed"):
            simulate_batch(probed, N, _path_batch(P, 12), t, x, ends)
        assert len(calls) == fail_after + 1
        assert threading.active_count() == before


class TestStrongRate:
    def test_halforder_strong_convergence_on_gbm(self):
        # paired with the exact lognormal solution on shared increments;
        # path i draws from stream (100 + n_steps, (i,)) past its skipped uniform
        prob = instantiate("scaled-bs", mu_bar=0.06, sigma_bar=0.4)
        mu_bar, sigma_bar = 0.06, 0.4
        T, x0, n_paths = 1.0, 1.0, 2000
        errors = []
        steps_grid = [4, 16, 64, 256]
        for n_steps in steps_grid:
            streams = _path_batch(n_paths, 100 + n_steps, drawn=False)
            z = np.zeros((n_paths, n_steps))
            fill_gaussians(streams, np.full(n_paths, n_steps), z)
            dt = T / n_steps
            increments = math.sqrt(dt) * z
            # Euler on the same increments, all paths at once
            y = np.full(n_paths, x0)
            for k in range(n_steps):
                y = y + (mu_bar * y * dt + sigma_bar * y * increments[:, k])
            sq = 0.0
            for i in range(n_paths):
                w_T = increments[i].sum()
                exact = x0 * math.exp((mu_bar - 0.5 * sigma_bar**2) * T + sigma_bar * w_T)
                sq += (y[i] - exact) ** 2
            errors.append(math.sqrt(sq / n_paths))
        slope = np.polyfit(np.log(steps_grid), np.log(errors), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_engine_matches_flat_euler_on_shared_draws(self):
        # the flat loop above is also the reference for the engine itself
        prob = instantiate("scaled-bs", mu_bar=0.06, sigma_bar=0.4)
        N = 16
        states, _ = simulate_batch(prob, N, _path_stream(55, (3,)), 0.0, np.array([1.0]),
                                   np.array([1.0]))
        st = _path_stream(55, (3,))
        z = draw_gaussians(st, 16)
        y, dt = 1.0, 1.0 / 16
        for k in range(16):
            y = y + (0.06 * y * dt + 0.4 * y * (math.sqrt(dt) * z[k]))
        assert states[0, 0] == y


class TestLyapunovCheck:
    def test_zero_elapsed_returns_phi_exactly(self):
        prob = instantiate("heat-quadratic", d=2)
        x = np.array([0.5, -1.0])
        res = lyapunov_check(prob, 4, 0.3, x, 0.3, paths=64, seed=0)
        assert res.empirical_mean == prob.phi(x)

    def test_numpy_integer_seed(self):
        prob = instantiate("heat-quadratic", d=1)
        assert (lyapunov_check(prob, 4, 0.0, [0.0], 0.5, 4, np.int64(-1))
                == lyapunov_check(prob, 4, 0.0, [0.0], 0.5, 4, -1))

    @pytest.mark.parametrize("paths", [2.5, True, np.float64(4.0), np.True_])
    def test_rejects_non_integer_paths_before_keying(self, paths, monkeypatch):
        prob = instantiate("heat-quadratic")
        monkeypatch.setattr(euler, "keys_at", None)  # any keying would fail here
        with pytest.raises(TypeError, match=re.escape(f"paths must be an integer, got {paths!r}")):
            lyapunov_check(prob, 4, 0.0, np.zeros(1), 1.0, paths=paths, seed=0)

    @pytest.mark.parametrize("x", [[math.nan, 1.0], [math.inf, 1.0], [[0.5, -1.0]]])
    def test_rejects_bad_x_before_drawing(self, x, monkeypatch):
        prob = instantiate("heat-quadratic", d=2)
        monkeypatch.setattr(euler, "keys_at", None)  # any draw would fail here
        with pytest.raises(ValueError, match="x must"):
            lyapunov_check(prob, 4, 0.0, np.array(x), 1.0, paths=8, seed=0)

    @pytest.mark.parametrize("paths", [5, 300])
    @pytest.mark.parametrize("name,overrides,x", [
        ("heat-quadratic", {"d": 2}, [0.5, -1.0]),
        ("scaled-bs", {"d": 3}, [1.0, 0.8, 1.2]),
    ])
    def test_equals_replay_of_one_stream_per_path(self, name, overrides, x, paths):
        # path i draws from stream (seed, (i,)) past its skipped uniform
        prob = instantiate(name, **overrides)
        res = lyapunov_check(prob, 8, 0.1, np.array(x), 0.9, paths=paths, seed=31)
        streams = [stream_for(31, (i,)) for i in range(paths)]
        for st in streams:
            skip_uniform(st)
        streams = stacked(streams)
        states, _ = simulate_batch(prob, 8, streams, 0.1, np.array(x), np.full(paths, 0.9))
        phis = lyapunov_phi_batch(states, prob.lyapunov_a)
        assert res.empirical_mean == float(phis.mean())
        assert res.std_error == float(phis.std(ddof=1) / math.sqrt(paths))
        assert res.bound == math.exp(2.0 * prob.coeff_lip**3 * (0.9 - 0.1)) * prob.phi(x)

    @pytest.mark.parametrize("name,overrides", [
        ("heat-quadratic", {"d": 2}),
        ("nonlinear-coeff-sine", {"kappa": 0.5}),
    ])
    def test_growth_inequality_with_statistical_slack(self, name, overrides):
        prob = instantiate(name, **overrides)
        N = 16
        x = np.zeros(prob.d)
        res = lyapunov_check(prob, N, 0.0, x, 1.0, paths=10_000, seed=12)
        slack = 1.0 + 3.0 * res.std_error / res.empirical_mean
        assert res.empirical_mean <= res.bound * slack
