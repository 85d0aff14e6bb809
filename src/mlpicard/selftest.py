"""Fast invariant suite behind the ``selftest`` CLI subcommand.

Each check is a small deterministic assertion of a core contract; the suite
prints one PASS/FAIL line per check and reports overall success.  It is a
smoke screen, not a replacement for the pytest suite.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .bounds import gronwall_discrete
from .euler import _plan, simulate_batch
from .harness import emit_csv, read_csv
from .mlp import MlpParams, cost_recursion_bound, estimate
from .oracle import closed_form, picard_quadrature_1d
from .problems import instantiate
from .rng import StreamBatch, StreamOrderError, keys_at, philox_blocks, stream_for


def _check_rng_determinism():
    a = stream_for(42, (0, 1, -3))
    b = stream_for(42, (0, 1, -3))
    assert a.uniform() == b.uniform()
    assert np.array_equal(a.gaussians(64), b.gaussians(64))
    c = stream_for(42, (0, 1, 3))
    assert c.uniform() != stream_for(43, (0, 1, 3)).uniform()


def _check_rng_order_guard():
    st = stream_for(0, (1,))
    st.uniform()
    st.gaussians(2)
    try:
        st.uniform()
    except StreamOrderError:
        return
    raise AssertionError("uniform after Gaussians should fail")


def _check_philox_kernel():
    # the numpy kernel and numpy's own Philox must agree word for word; a numpy
    # upgrade that changes either shows here before it shows as golden drift
    blocks = np.array([0, 1, 2, 7, 1000])
    for key in (0, 2**64 - 1, (2**64 - 1) << 64, 2**128 - 1, 0x243F6A8885A308D313198A2E03707344):
        keys = np.array([[key & (2**64 - 1), key >> 64]] * len(blocks), dtype=np.uint64)
        for row, block in zip(philox_blocks(keys, blocks), blocks.tolist()):
            assert np.array_equal(row, np.random.Philox(key=key).advance(block).random_raw(4))


def _check_label_concat():
    # a stream keyed under a parent label is the stream of the concatenated label
    batched = StreamBatch(keys_at(9, (0, 1, 1), np.array([2, -3], dtype="<i8").tobytes(), 16))
    assert batched.uniforms(np.ones(1, bool))[0] == stream_for(9, (0, 1, 1) + (2, -3)).uniform()


def _check_euler_identity():
    prob = instantiate("nonlinear-coeff-sine", kappa=0.5)
    st = stream_for(3, (5,))
    st.uniform()
    states, counts = simulate_batch(prob, 8, [st], 0.25, np.array([0.7]), np.array([0.25]))
    assert counts[0] == 0 and st.cursor == 1  # only the discarded uniform
    assert np.array_equal(states[0], np.array([0.7]))
    # 0.3 -> 0.9 on the grid of 4 steps: targets 0.5 (grid index 2), 0.75, then 0.9
    first, counts = _plan(np.array([0.3]), np.array([0.9]), 4, 1.0)
    assert first.tolist() == [2] and counts.tolist() == [3]


def _check_zero_depth_and_determinism():
    prob = instantiate("heat-quadratic", d=2)
    zero = estimate(prob, MlpParams(n=0, M=3, root_seed=1), (0,), 0.0, np.zeros(2))
    assert zero.value == 0.0 and zero.cost.weighted(1, 1, 1, 1) == 0.0
    p = MlpParams(n=2, M=2, root_seed=11)
    e1 = estimate(prob, p, (0,), 0.0, np.zeros(2))
    e2 = estimate(prob, p, (0,), 0.0, np.zeros(2))
    assert e1.value == e2.value and e1.cost.as_dict() == e2.cost.as_dict()


def _check_cost_soundness():
    prob = instantiate("heat-quadratic", d=2)
    for n in range(3):
        for M in (1, 2):
            par = MlpParams(n=n, M=M, root_seed=5)
            res = estimate(prob, par, (0,), 0.0, np.zeros(2))
            bound = cost_recursion_bound(n, M, 2, par.resolved_steps, (1, 1, 1, 1))
            assert res.cost.weighted(1, 1, 1, 1) <= bound


def _check_gronwall():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alphas = rng.uniform(0, 2, size=6)
        beta = rng.uniform(0, 1.5)
        got = gronwall_discrete(alphas, beta)
        gammas = []
        for n in range(6):
            gammas.append(alphas[n] + beta * sum(gammas))
        assert np.allclose(got, gammas, rtol=0, atol=1e-12)


def _check_cross_oracle():
    prob = instantiate("linear-reaction", d=1)
    exact = closed_form(prob, 0.0, [0.0])
    quad = picard_quadrature_1d(prob, 0.0, [0.0], depth=8, nodes=32, time_cells=32,
                                space_points=65)
    assert abs(exact.value - quad.value) <= exact.ci_halfwidth + quad.ci_halfwidth + 1e-3


def _check_csv_roundtrip():
    header = ["a", "b", "c"]
    rows = [[1, math.pi, "ok"], [2, 1e-17, "xy"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        emit_csv(header, rows, path)
        back_header, back_rows = read_csv(path)
    assert back_header == header
    assert float(back_rows[0][1]) == math.pi


CHECKS = [
    ("rng-determinism", _check_rng_determinism),
    ("rng-order-guard", _check_rng_order_guard),
    ("philox-kernel", _check_philox_kernel),
    ("theta-concatenation", _check_label_concat),
    ("euler-identity-and-grid", _check_euler_identity),
    ("zero-depth-and-determinism", _check_zero_depth_and_determinism),
    ("cost-tally-soundness", _check_cost_soundness),
    ("gronwall-brute-force", _check_gronwall),
    ("cross-oracle-agreement", _check_cross_oracle),
    ("csv-roundtrip", _check_csv_roundtrip),
]


def run_selftest(out=print) -> bool:
    ok = True
    for name, check in CHECKS:
        try:
            check()
            out(f"selftest {name}: PASS")
        except Exception as exc:  # report and continue
            ok = False
            out(f"selftest {name}: FAIL ({exc})")
    out("selftest overall: " + ("PASS" if ok else "FAIL"))
    return ok
