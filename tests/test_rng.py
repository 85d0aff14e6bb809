"""Stream determinism, the word layout, and distributional spot checks."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import stats
from scipy.special import ndtri

from mlpicard import rng
from mlpicard.rng import extended, first_blocks, keys_of, label_state, philox_blocks

from helpers import (
    draw_gaussians,
    draw_uniform,
    fill_gaussians,
    keys_at,
    raw_uniform_sequence,
    stream_for,
)


def test_same_address_is_bit_identical():
    for theta in [(0,), (3, -17, 12345), (0, 0, -1)]:
        a = stream_for(2024, theta)
        b = stream_for(2024, theta)
        assert draw_uniform(a) == draw_uniform(b)
        assert np.array_equal(draw_gaussians(a, 257), draw_gaussians(b, 257))


def test_neighbor_seed_changes_first_uniform():
    assert draw_uniform(stream_for(7, (0, 1))) != draw_uniform(stream_for(8, (0, 1)))


def test_empty_label_rejected():
    with pytest.raises(ValueError):
        stream_for(0, ())


@pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(2.0), True, np.True_, "2", None])
def test_non_integer_label_element_rejected(bad):
    with pytest.raises(TypeError, match="integers"):
        stream_for(1, (bad,))
    with pytest.raises(TypeError, match="integers"):
        stream_for(1, (0, bad, 3))
    with pytest.raises(TypeError, match="integers"):
        keys_at(1, (0, bad), [[1, 2]])


def test_numpy_integer_labels_equal_int_labels():
    a = stream_for(1, (np.int64(2), np.int32(-3), np.uint8(4)))
    b = stream_for(1, (2, -3, 4))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed, same", [(np.int64(5), 5), (np.uint64(5), 5), (np.int64(-1), -1)])
def test_numpy_integer_root_seeds_equal_int_seeds(seed, same):
    assert np.array_equal(stream_for(seed, (1, 2)), stream_for(same, (1, 2)))
    suffixes = [[3], [-4]]
    assert np.array_equal(keys_at(seed, (1,), suffixes), keys_at(same, (1,), suffixes))


@pytest.mark.parametrize("bad", [True, 2.0])
def test_non_integer_root_seed_rejected(bad):
    with pytest.raises(TypeError, match="root seed"):
        stream_for(bad, (1,))
    with pytest.raises(TypeError, match="root seed"):
        keys_at(bad, (), [[1]])


def test_stream_for_is_a_one_row_key_array():
    key = stream_for(2**64 + 3, (0, -1))
    assert key.dtype == np.uint64 and key.shape == (1, 2)
    assert np.array_equal(key, stream_for(3, (0, -1)))
    assert np.array_equal(key, keys_at(3, (0,), [[-1]]))


def test_label_element_outside_64_bits_rejected():
    with pytest.raises(OverflowError):
        stream_for(0, (2**63,))


def test_batch_keys_equal_single_keys():
    pairs = [(0, -1), (0, -2), (3, 7), (-2, 5), (np.int64(1), np.int64(1))]
    for parent in [(0,), (4, -1, 2), ()]:
        batch = keys_at(9, parent, np.array(pairs))
        assert batch.tolist() == [stream_for(9, parent + tuple(p))[0].tolist() for p in pairs]


def test_extended_states_key_longer_labels():
    # a label grown pair by pair, as the estimator grows its sub-estimates'
    # labels, keys the stream of the whole label; many parents go parent by parent
    pairs = np.array([(2, 3), (-1, 4)])
    children = list(extended([label_state(6, (0,))], pairs))
    grandchildren = keys_of(extended(children, pairs[:1]))
    assert grandchildren.tolist() == [stream_for(6, (0, 2, 3, 2, 3))[0].tolist(),
                                      stream_for(6, (0, -1, 4, 2, 3))[0].tolist()]
    assert keys_of(children).tolist() == keys_at(6, (0,), pairs).tolist()
    assert keys_of([]).shape == (0, 2)


@pytest.mark.parametrize("bad", [-1, -5])
def test_bad_gaussian_count_rejected_before_drawing(bad):
    key = stream_for(4, (1,))
    out = np.full((1, 4), 7.0)
    with pytest.raises(ValueError, match="counts must lie"):
        fill_gaussians(key, np.array([bad]), out)
    assert np.all(out == 7.0)


def test_fill_gaussians_matches_per_stream_draws_and_keeps_padding():
    counts = np.array([5, 0, 9, 2])
    keys = np.concatenate([stream_for(8, (1, 0, -i)) for i in range(1, 5)])
    out = np.full((4, 10), 7.0)
    fill_gaussians(keys, counts, out)
    for row, n, key in zip(out, counts, keys):
        assert np.array_equal(row[:n], draw_gaussians(key[None], int(n)))
        assert np.all(row[n:] == 7.0)


def test_draws_construct_no_generator(monkeypatch):
    draw_uniform(stream_for(0, (1,)))  # this thread's generator now exists
    made = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        made.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for key in [stream_for(0, (2, 1, i)) for i in range(50)]:
        draw_uniform(key)
        draw_gaussians(key, 11)
    raw_uniform_sequence(0, (3,), 20)
    assert not made


# ---------------------------------------------------------------------------
# pinned draws: (root seed, label, uniform, first 9 raw Philox words, first 5 Gaussians)

PINNED = [
    (
        -5, (3,),
        0.17914053786408712,
        [3304559655205491866, 10504479971121381264, 749034196360151958,
         12788542044464233547, 16786346218004403888, 2056365405572410583,
         14822583675397755310, 17030864002722552873, 9105222585615331493],
        [0.17497153608343349, -1.7437055317579995, 0.50513575017175216,
         1.3406913128006492, -1.2187171036026783],
    ),
    (
        11, (0, -1, -7),
        0.66241885457063554,
        [12219471079864341485, 13130196697233351555, 16063703905938211579,
         16824254911269780721, 7802144561844040415, 17103140843843254511,
         17159455525790680821, 16500198332197683020, 11556111627501829352],
        [0.5586198037156932, 1.1302527629147501, 1.3534540270559976,
         -0.19433930873267297, 1.4549837723090364],
    ),
    (
        2024, (0, 1, 2, -1, 3, -3, 4),
        0.74272992609810551,
        [13700948862616961090, 8957214486636472338, 15623946619331614721,
         7997485418190422929, 12736259997449921190, 18246436688463539676,
         6728114825938762022, 9845936799908126019, 15523126347847791305],
        [-0.036174598006552983, 1.023549066144045, -0.1673570641672445,
         0.49708101190117593, 2.2952749854682533],
    ),
]


def _reference_words(seed, theta, count):
    """The first ``count`` words of a freshly keyed Philox generator."""
    return np.random.Philox(key=stream_for(seed, theta)[0]).random_raw(count)


def _reference_gaussians(words):
    return ndtri(((words >> np.uint64(11)) + 0.5) * 2.0**-53)


@pytest.mark.parametrize("seed, theta, uniform, words, gaussians", PINNED)
def test_pinned_draws(seed, theta, uniform, words, gaussians):
    # word 0 is the uniform, words 1.. the Gaussians
    raw = _reference_words(seed, theta, 9)
    assert [int(w) for w in raw] == words
    key = stream_for(seed, theta)
    assert draw_uniform(key) == uniform
    assert draw_gaussians(key, 5).tolist() == gaussians
    assert np.array_equal(draw_gaussians(key, 8), _reference_gaussians(raw[1:]))
    assert raw_uniform_sequence(seed, theta, 9).tolist() == ((raw >> np.uint64(11)) * 2.0**-53).tolist()


def test_alternating_threads_draw_the_sequential_values():
    labels = [(1, 2), (1, -2)]
    expected = []
    for theta in labels:
        key = stream_for(77, theta)
        expected.append([draw_uniform(key)] + [draw_gaussians(key, k) for k in (1, 3, 4, 6)])

    turn = threading.Condition()
    state = {"next": 0}
    got = [[], []]

    def worker(me):
        key = stream_for(77, labels[me])
        draws = [lambda: draw_uniform(key)]
        draws += [lambda k=k: draw_gaussians(key, k) for k in (1, 3, 4, 6)]
        for draw in draws:
            with turn:
                turn.wait_for(lambda: state["next"] == me)
                got[me].append(draw())
                state["next"] = 1 - me
                turn.notify_all()

    threads = [threading.Thread(target=worker, args=(me,)) for me in (0, 1)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    assert not any(th.is_alive() for th in threads)
    for me in (0, 1):
        assert got[me][0] == expected[me][0]
        for a, b in zip(got[me][1:], expected[me][1:]):
            assert np.array_equal(a, b)
        assert len(got[me]) == len(expected[me])


def test_concurrent_threads_draw_the_sequential_values():
    def draws(theta):
        key = stream_for(5, theta)
        return [draw_uniform(key)] + [draw_gaussians(key, k) for k in [3, 500, 1, 2000] * 25]

    labels = [(i, -i) for i in range(1, 5)]
    expected = [draws(theta) for theta in labels]
    got = [None] * len(labels)

    def worker(i):
        got[i] = draws(labels[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(labels))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for want, have in zip(expected, got):
        assert have[0] == want[0]
        assert all(np.array_equal(a, b) for a, b in zip(have[1:], want[1:]))


# ---------------------------------------------------------------------------
# the vectorized Philox kernel and hybrid batch draws


def _key_array(keys):
    return np.array([(k & (2**64 - 1), k >> 64) for k in keys], dtype=np.uint64).reshape(-1, 2)


def _key_int(seed, theta):
    """The 128-bit Philox key of a stream as one integer."""
    low, high = stream_for(seed, theta)[0].tolist()
    return low | high << 64


@pytest.mark.parametrize("key", [0, 2**64 - 1, (2**64 - 1) << 64, 2**128 - 1,
                                 _key_int(11, (0, -1, -7))])
def test_kernel_blocks_equal_numpy_philox(key):
    blocks = np.arange(21)
    words = philox_blocks(_key_array([key] * len(blocks)), blocks)
    assert words.dtype == np.uint64 and words.shape == (21, 4)
    assert np.array_equal(words.reshape(-1), np.random.Philox(key=key).random_raw(4 * 21))


@settings(max_examples=60, deadline=None)
@given(hs.lists(hs.tuples(hs.integers(0, 2**128 - 1), hs.integers(0, 2**62)),
                min_size=1, max_size=8))
def test_kernel_blocks_equal_numpy_philox_at_any_key_and_block(pairs):
    keys, blocks = zip(*pairs)
    words = philox_blocks(_key_array(keys), np.array(blocks))
    for row, key, block in zip(words, keys, blocks):
        assert np.array_equal(row, np.random.Philox(key=key).advance(block).random_raw(4))


def test_kernel_uniforms_are_the_top_53_bits():
    key = _key_int(3, (1, 2))
    raw = philox_blocks(_key_array([key] * 4), np.arange(4)).reshape(-1)
    expected = (raw >> np.uint64(11)) * 2.0**-53
    assert np.array_equal(rng._uniforms(raw), expected)
    assert np.array_equal(expected, np.random.Generator(np.random.Philox(key=key)).random(16))


def _batch(size, seed=21):
    """``size`` streams of one parent label, one by one and as one batch."""
    pairs = [(1, i) for i in range(size)]
    keys = keys_at(seed, (4,), pairs)
    return [stream_for(seed, (4,) + p) for p in pairs], keys


@pytest.mark.parametrize("size", [rng._KERNEL_MIN_STREAMS - 1, rng._KERNEL_MIN_STREAMS])
def test_batch_uniforms_equal_stream_uniforms(size):
    singles, keys = _batch(size)
    drawn = np.arange(size) % 3 != 0
    block0 = first_blocks(keys[drawn])
    assert block0[:, 0].tolist() == [draw_uniform(key) for key, on in zip(singles, drawn) if on]
    assert np.array_equal(block0, [raw_uniform_sequence(21, (4, 1, i), 4)
                                   for i in np.flatnonzero(drawn).tolist()])
    assert first_blocks(keys[:0]).shape == (0, 4)


@pytest.mark.parametrize("size", [rng._KERNEL_MIN_STREAMS - 1, rng._KERNEL_MIN_STREAMS,
                                  2 * rng._KERNEL_MIN_STREAMS])
@pytest.mark.parametrize("blocks_per_pass", [None, 5])
def test_hybrid_fill_equals_one_stream_draws(size, blocks_per_pass, monkeypatch):
    # short and long rows mixed, with counts around the stream-length cutover
    # and around Philox's 4-word blocks; in one kernel pass or in many; drawn
    # from a reordered keys_at batch
    if blocks_per_pass:
        monkeypatch.setattr(rng, "_KERNEL_BLOCKS", blocks_per_pass)
    cut = rng._KERNEL_MAX_WORDS
    lengths = [0, 1, 2, 3, 4, 5, 7, cut - 1, cut, cut + 1, cut + 2, 2 * cut + 5]
    counts = np.array([lengths[i % len(lengths)] for i in range(size)][::-1])
    singles, keys = _batch(size)
    rows = np.arange(size)[::-1]  # the batch in another order
    out = np.zeros((size, counts.max() + 3))
    fill_gaussians(keys[rows], counts, out)
    for row, n, i in zip(out, counts.tolist(), rows.tolist()):
        assert np.array_equal(row[:n], draw_gaussians(singles[i], n))
        assert np.all(row[n:] == 0.0)


@pytest.mark.parametrize("size", [3, rng._KERNEL_MIN_STREAMS])
@pytest.mark.parametrize("counts, shape", [
    ("wide", None),      # one count wider than out's rows
    ("negative", None),  # one count below zero
    ("short", None),     # one count fewer than the streams
    (None, "rows"),      # one row of out more than the streams
])
def test_fill_rejects_counts_that_do_not_fit_out(size, counts, shape):
    # with fewer than _KERNEL_MIN_STREAMS streams the native generator draws,
    # with more the kernel; either way nothing is drawn
    singles, keys = _batch(size)
    n = np.full(size, 2)
    if counts == "wide":
        n[size // 2] = 4
    elif counts == "negative":
        n[-1] = -1
    elif counts == "short":
        n = n[1:]
    out = np.full((size + (shape == "rows"), 3), 7.0)
    with pytest.raises(ValueError):
        fill_gaussians(keys, n, out)
    assert np.all(out == 7.0)
    m = size // 2
    after = np.empty((1, 3))
    fill_gaussians(keys[np.array([m])], np.array([3]), after)
    assert np.array_equal(after[0], draw_gaussians(singles[m], 3))


# ---------------------------------------------------------------------------
# distributional checks


@pytest.fixture(scope="module")
def first_uniforms():
    # one real uniform draw per stream, 1e5 distinct labels (271828, (i,))
    labels = np.arange(100_000)[:, None]
    return first_blocks(keys_at(271828, (), labels))[:, 0]


def test_uniform_mean(first_uniforms):
    assert abs(first_uniforms.mean() - 0.5) < 0.01


def test_uniform_cdf_at_quarter(first_uniforms):
    assert abs((first_uniforms < 0.25).mean() - 0.25) < 0.01


def test_uniform_ks_statistic(first_uniforms):
    sample = first_uniforms[:10_000]
    ks = stats.kstest(sample, "uniform").statistic
    critical_1pct = 1.628 / np.sqrt(len(sample))
    assert ks < critical_1pct


def test_sibling_streams_uncorrelated():
    a = raw_uniform_sequence(99, (0, 1), 10_000)
    b = raw_uniform_sequence(99, (0, -1), 10_000)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.05


def test_prefix_sharing_streams_uncorrelated():
    pairs = [((5, 2, 1), (5, 2, 2)), ((0, 0, -1), (0, 0, -2)), ((1,), (1, 1))]
    for ta, tb in pairs:
        a = raw_uniform_sequence(4242, ta, 10_000)
        b = raw_uniform_sequence(4242, tb, 10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_pooled_streams_look_uniform():
    pooled = np.concatenate(
        [raw_uniform_sequence(31337, (7, k), 100) for k in range(100)]
    )
    assert stats.kstest(pooled, "uniform").pvalue > 0.01


def test_gaussian_moments():
    z = draw_gaussians(stream_for(17, (2, 2)), 100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var(ddof=1) - 1.0) < 0.02


def test_gaussian_normality():
    z = draw_gaussians(stream_for(23, (3, 1)), 10_000)
    assert stats.kstest(z, "norm").pvalue > 0.01
