"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The heavy experiment runs are shared through session
fixtures; the nonlinear-coefficient baseline loads from the cache shipped
under ``data/baselines`` (recomputing it from scratch takes ~10 minutes and
would trip the runtime criterion).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from mlpicard.bounds import gronwall_discrete, gronwall_mlp, total_cost_bound
from mlpicard.euler import lyapunov_check, simulate_batch
from mlpicard.harness import (
    find_depth_for_epsilon,
    parse_config,
    run_experiment,
)
from mlpicard.mlp import MlpParams, cost_recursion_bound, estimate, estimate_many
from mlpicard.problems import CATALOGUE, instantiate
from mlpicard.rng import stream_for

from helpers import build_recursive_family


def _announce(num: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}{suffix}")


# ---------------------------------------------------------------------------
# shared experiment runs


@pytest.fixture(scope="session")
def closed_form_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept-heat")
    runs = {}
    start = time.perf_counter()
    for d in (1, 10):
        x0 = ", ".join(["0.0"] * d)
        cfg = parse_config(
            "problem = heat-quadratic\n"
            f"d = {d}\nT = 1.0\nt0 = 0.0\nx0 = {x0}\n"
            "depths = 1, 2, 3, 4\nreplications = 64\nseed = 1000\n"
            "reference = closed-form\n"
            f"output_dir = {out / f'd{d}'}\n"
        )
        runs[d] = run_experiment(cfg)
    runs["elapsed"] = time.perf_counter() - start
    return runs


@pytest.fixture(scope="session")
def nonlinear_runs(tmp_path_factory, baseline_cache_dir):
    out = tmp_path_factory.mktemp("accept-sine")
    base = ("problem = nonlinear-coeff-sine\nd = 1\nT = 1.0\nlip_f = 0.5\n"
            "depths = 1, 2, 3, 4\nreplications = 32\nseed = 3000\n")
    runs = {}
    start = time.perf_counter()
    cfg_control = parse_config(
        base + "kappa = 0.0\nreference = picard\n"
        f"output_dir = {out / 'control'}\n")
    runs["control"] = run_experiment(cfg_control)
    cfg_nonlinear = parse_config(
        base + "kappa = 0.5\nreference = mc-baseline\n"
        "reference_n = 5\nreference_m = 5\nreference_steps = 512\n"
        "reference_replications = 24\nreference_seed = 777\n"
        f"cache_dir = {baseline_cache_dir}\n"
        f"output_dir = {out / 'nonlinear'}\n")
    runs["nonlinear"] = run_experiment(cfg_nonlinear)
    runs["elapsed"] = time.perf_counter() - start
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_closed_form_recovery(closed_form_runs):
    ok = True
    details = []
    for d in (1, 10):
        rows, reference, _ = closed_form_runs[d]
        assert reference.value == float(d)  # u(0, 0) = d * T
        for row in rows:
            if abs(row.value_mean - d) > 3.0 * row.value_se:
                ok = False
                details.append(f"d={d} n={row.n} mean off by "
                               f"{abs(row.value_mean - d) / row.value_se:.1f} SE")
        rmses = [row.rmse_vs_reference for row in rows]
        if not all(rmses[i + 1] < rmses[i] for i in range(len(rmses) - 1)):
            ok = False
            details.append(f"d={d} rmse not strictly decreasing: {rmses}")
    elapsed = closed_form_runs["elapsed"]
    if elapsed >= 180.0:
        ok = False
        details.append(f"runtime {elapsed:.0f}s")
    _announce(1, "closed-form recovery", ok,
              "; ".join(details) or f"both dimensions, {elapsed:.0f}s")
    assert ok, details


def test_criterion_02_nonlinear_coefficient_convergence(nonlinear_runs):
    ok = True
    details = []
    for tag in ("control", "nonlinear"):
        rows, _, _ = nonlinear_runs[tag]
        rmses = [row.rmse_vs_reference for row in rows]
        if not all(rmses[i + 1] < rmses[i] for i in range(len(rmses) - 1)):
            ok = False
            details.append(f"{tag} rmse not decreasing: {rmses}")
        if not rmses[-1] < rmses[0] / 3.0:
            ok = False
            details.append(f"{tag} final/first = {rmses[-1] / rmses[0]:.3f}")
        else:
            details.append(f"{tag} first/final = {rmses[0] / rmses[-1]:.1f}x")
    elapsed = nonlinear_runs["elapsed"]
    if elapsed >= 300.0:
        ok = False
        details.append(f"runtime {elapsed:.0f}s")
    _announce(2, "nonlinear-coefficient convergence", ok, "; ".join(details))
    assert ok, details


def test_criterion_03_error_bound_dominance(closed_form_runs, nonlinear_runs):
    rows = []
    for d in (1, 10):
        rows.extend(closed_form_runs[d][0])
    for tag in ("control", "nonlinear"):
        rows.extend(nonlinear_runs[tag][0])
    violations = [
        (row.n, row.M, row.rmse_vs_reference, row.theoretical_error_bound)
        for row in rows
        if row.rmse_vs_reference > row.theoretical_error_bound
    ]
    ok = not violations
    _announce(3, "error-bound dominance", ok,
              f"{len(rows)} rows checked" if ok else f"violations: {violations}")
    assert ok, violations


def test_criterion_04_cost_ledger_soundness():
    ok = True
    details = []
    problems = [instantiate("heat-quadratic", d=2),
                instantiate("nonlinear-coeff-sine", kappa=0.5)]
    for prob in problems:
        for n in range(4):
            for M in range(1, 4):
                for seed in (11, 12):
                    params = MlpParams(n=n, M=M, root_seed=seed)
                    res = estimate(prob, params, (0,), 0.0, np.zeros(prob.d))
                    bound = cost_recursion_bound(n, M, prob.d, params.resolved_steps,
                                                 (1, 1, 1, 1))
                    if res.cost.weighted(1, 1, 1, 1) > bound:
                        ok = False
                        details.append(f"{prob.name} ({n},{M}) tally over bound")
    for d in (1, 10):
        folded_m = 1.0 + d * 1.0
        folded_f = 1.0 + 2.0 * 1.0
        for n in (1, 2, 3):
            summed = sum(cost_recursion_bound(k, k, d, k**k, (1, 1, 1, 1))
                         for k in range(1, n + 2))
            if summed > total_cost_bound(n, folded_m, 1.0, folded_f):
                ok = False
                details.append(f"d={d} n={n} summed recursion over total bound")
    _announce(4, "cost-ledger soundness", ok, "; ".join(details) or
              "grid {0..3}x{1..3} on two problems; summed bounds for n in 1..3")
    assert ok, details


def test_criterion_05_complexity_scaling(tmp_path):
    start = time.perf_counter()
    cfg = parse_config(
        "problem = heat-quadratic\nd = 1\ndepths = 1\nreplications = 64\n"
        f"seed = 2000\nmax_depth = 5\noutput_dir = {tmp_path}\n")
    sweep, _ = find_depth_for_epsilon(cfg, [0.5, 0.25, 0.125])
    elapsed = time.perf_counter() - start
    ok = all(row.status == "ok" for row in sweep)
    values = [row.cost_times_eps_power for row in sweep]
    ratio = max(values) / min(values) if ok else math.inf
    constant = max(values) if ok else math.inf
    if ratio >= 50.0:
        ok = False
    if elapsed >= 600.0:
        ok = False
    _announce(5, "complexity scaling", ok,
              f"bounding constant {constant:.1f}, max/min ratio {ratio:.1f}, "
              f"{elapsed:.0f}s")
    assert ok, (values, ratio, elapsed)


def test_criterion_06_euler_strong_rate():
    mu_bar, sigma_bar, x0, horizon = 0.06, 0.4, 1.0, 1.0
    prob = instantiate("scaled-bs", mu_bar=mu_bar, sigma_bar=sigma_bar)
    n_paths = 10_000
    steps_grid = [4, 16, 64, 256]
    errors = []
    for n_steps in steps_grid:
        streams = []
        for i in range(n_paths):
            st = stream_for(60_000 + n_steps, (i,))
            st.uniform()
            streams.append(st)
        states, _ = simulate_batch(prob, n_steps, streams, 0.0, np.array([x0]),
                                   np.full(n_paths, horizon))
        # exact lognormal endpoint from the same increments
        exact = np.empty(n_paths)
        dt = horizon / n_steps
        for i in range(n_paths):
            st = stream_for(60_000 + n_steps, (i,))
            st.uniform()
            w_T = math.sqrt(dt) * st.gaussians(n_steps).sum()
            exact[i] = x0 * math.exp((mu_bar - 0.5 * sigma_bar**2) * horizon
                                     + sigma_bar * w_T)
        errors.append(math.sqrt(np.mean((states[:, 0] - exact) ** 2)))
    slope = float(np.polyfit(np.log(steps_grid), np.log(errors), 1)[0])
    ok = -0.65 <= slope <= -0.35
    _announce(6, "pathwise half-order strong rate", ok, f"slope {slope:.3f}")
    assert ok, (slope, errors)


def test_criterion_07_lyapunov_inequality():
    ok = True
    details = []
    for name in CATALOGUE:
        prob = instantiate(name)
        res = lyapunov_check(prob, 16, 0.0, np.zeros(prob.d),
                             prob.T, paths=10_000, seed=88)
        slack = 1.0 + 3.0 * res.std_error / res.empirical_mean
        if res.empirical_mean > res.bound * slack:
            ok = False
            details.append(f"{name}: {res.empirical_mean:.3f} > {res.bound:.3g}")
    _announce(7, "path growth inequality", ok,
              "; ".join(details) or f"all {len(CATALOGUE)} problems at 1e4 paths")
    assert ok, details


def test_criterion_08_mean_identity():
    # depth-n mean equals terminal expectation plus the time-averaged
    # nonlinearity of an independent depth-(n-1) estimate, at matched N
    prob = instantiate("linear-reaction", d=1)
    n_steps = 4  # = M**M for M = 2
    horizon = 1.0

    lhs_vals = np.array([
        est.value for est in estimate_many(prob, MlpParams(n=2, M=2), range(10_000), (0,),
                                           0.0, np.zeros(1))
    ])
    lhs_mean = lhs_vals.mean()
    lhs_se = lhs_vals.std(ddof=1) / math.sqrt(lhs_vals.size)

    rhs_samples = 20_000
    rhs_vals = np.empty(rhs_samples)
    for j in range(rhs_samples):
        seed = 5_000_000 + j
        term_stream = stream_for(seed, (1,))
        term_stream.uniform()
        terminal_state, _ = simulate_batch(prob, n_steps, [term_stream], 0.0,
                                           np.zeros(1), np.array([horizon]))
        g_part = float(prob.terminal(terminal_state)[0])

        level_stream = stream_for(seed, (2,))
        r = level_stream.uniform()
        eval_time = min(horizon * r, horizon)
        state, _ = simulate_batch(prob, n_steps, [level_stream], 0.0, np.zeros(1),
                                  np.array([eval_time]))
        inner = estimate(prob, MlpParams(n=1, M=2, euler_steps=n_steps, root_seed=seed),
                         (3,), eval_time, state[0]).value
        f_val = float(prob.nonlinearity(np.array([eval_time]), state,
                                        np.array([inner]))[0])
        rhs_vals[j] = g_part + horizon * f_val
    rhs_mean = rhs_vals.mean()
    rhs_se = rhs_vals.std(ddof=1) / math.sqrt(rhs_samples)

    gap = abs(lhs_mean - rhs_mean)
    tol = 4.0 * math.hypot(lhs_se, rhs_se)
    ok = gap <= tol
    _announce(8, "estimator mean identity", ok,
              f"lhs {lhs_mean:.4f}, rhs {rhs_mean:.4f}, gap {gap:.4f} <= {tol:.4f}")
    assert ok, (lhs_mean, rhs_mean, gap, tol)


def test_criterion_09_gronwall_unit_suite():
    ok = True
    details = []
    rng = np.random.default_rng(90)
    for _ in range(100):
        size = int(rng.integers(1, 8))
        alphas = rng.uniform(0, 3, size=size)
        beta = float(rng.uniform(0, 2))
        got = gronwall_discrete(alphas, beta)
        gammas = []
        for n in range(size):
            gammas.append(alphas[n] + beta * sum(gammas))
        if not np.allclose(got, gammas, rtol=1e-12, atol=0.0):
            ok = False
            details.append("discrete recursion mismatch")
            break
    fuzz = np.random.default_rng(91)
    for _ in range(50):
        a, b = float(fuzz.uniform(0, 3)), float(fuzz.uniform(0, 2))
        horizon = float(fuzz.uniform(0.5, 2.0))
        tau = float(fuzz.uniform(0.0, horizon))
        p = float(fuzz.choice([1.0, 2.0]))
        M, N = int(fuzz.integers(1, 5)), int(fuzz.integers(1, 5))
        sup_f0 = float(fuzz.uniform(0, 2))
        fams = build_recursive_family(a, b, horizon, tau, p, M, N, sup_f0)
        bound = gronwall_mlp(a, b, horizon, tau, p, M, N, sup_f0)
        if fams[N][0] > bound * (1 + 1e-9) + 1e-12:
            ok = False
            details.append(f"dominance fails at (a={a:.2f}, b={b:.2f}, M={M}, N={N})")
            break
    _announce(9, "recursion-bound unit suite", ok,
              "; ".join(details) or "100 exact + 50 dominance cases")
    assert ok, details


def test_criterion_10_parallel_determinism(tmp_path):
    blobs = {}
    for workers in (1, 8):
        cfg = parse_config(
            "problem = heat-quadratic\nd = 1\ndepths = 1, 2\nreplications = 8\n"
            f"seed = 42\nworkers = {workers}\n"
            f"output_dir = {tmp_path / f'w{workers}'}\n")
        _, _, paths = run_experiment(cfg)
        blobs[workers] = tuple(Path(paths[k]).read_bytes()
                               for k in ("results", "raw", "bounds"))
    ok = blobs[1] == blobs[8]
    _announce(10, "schedule-independent outputs", ok,
              "1-worker and 8-worker CSVs byte-identical" if ok else "CSV mismatch")
    assert ok
