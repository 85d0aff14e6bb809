"""Stream determinism, ordering rules, and distributional spot checks."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import stats
from scipy.special import ndtri

from mlpicard import rng
from mlpicard.rng import (
    StreamBatch,
    StreamOrderError,
    keys_at,
    philox_blocks,
    stream_for,
)

from helpers import (
    draw_gaussians,
    draw_uniform,
    fill_gaussians,
    raw_uniform_sequence,
    skip_uniform,
    stacked,
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


def test_uniform_must_come_first():
    st = stream_for(0, (1,))
    draw_uniform(st)
    with pytest.raises(StreamOrderError):
        draw_uniform(st)

    st2 = stream_for(0, (2,))
    with pytest.raises(StreamOrderError):
        draw_gaussians(st2, 1)

    st3 = stream_for(0, (3,))
    draw_uniform(st3)
    draw_gaussians(st3, 4)
    with pytest.raises(StreamOrderError):
        draw_uniform(st3)


@pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(2.0), True, np.True_, "2", None])
def test_non_integer_label_element_rejected(bad):
    with pytest.raises(TypeError, match="integers"):
        stream_for(1, (bad,))
    with pytest.raises(TypeError, match="integers"):
        stream_for(1, (0, bad, 3))
    with pytest.raises(TypeError, match="integers"):
        keys_at(1, (0, bad), np.array([1, 2], dtype="<i8").tobytes(), 16)


def test_numpy_integer_labels_equal_int_labels():
    a = stream_for(1, (np.int64(2), np.int32(-3), np.uint8(4)))
    b = stream_for(1, (2, -3, 4))
    assert np.array_equal(a.keys[0], b.keys[0])


@pytest.mark.parametrize("seed, same", [(np.int64(5), 5), (np.uint64(5), 5), (np.int64(-1), -1)])
def test_numpy_integer_root_seeds_equal_int_seeds(seed, same):
    assert np.array_equal(stream_for(seed, (1, 2)).keys, stream_for(same, (1, 2)).keys)
    suffixes = np.array([3, -4], dtype="<i8").tobytes()
    assert np.array_equal(keys_at(seed, (1,), suffixes, 8), keys_at(same, (1,), suffixes, 8))


@pytest.mark.parametrize("bad", [True, 2.0])
def test_non_integer_root_seed_rejected(bad):
    with pytest.raises(TypeError, match="root seed"):
        stream_for(bad, (1,))
    with pytest.raises(TypeError, match="root seed"):
        keys_at(bad, (), np.array([1], dtype="<i8").tobytes(), 8)


def test_stream_for_is_a_one_row_batch_at_cursor_zero():
    st = stream_for(2**64 + 3, (0, -1))
    assert type(st) is StreamBatch and len(st) == 1 and st.cursors.tolist() == [0]
    assert np.array_equal(st.keys, stream_for(3, (0, -1)).keys)


def test_label_element_outside_64_bits_rejected():
    with pytest.raises(OverflowError):
        stream_for(0, (2**63,))


def test_batch_keys_equal_single_keys():
    pairs = [(0, -1), (0, -2), (3, 7), (-2, 5), (np.int64(1), np.int64(1))]
    for parent in [(0,), (4, -1, 2), ()]:
        batch = StreamBatch(keys_at(9, parent, np.array(pairs, dtype="<i8").tobytes(), 16))
        assert batch.keys.tolist() == [
            stream_for(9, parent + tuple(p)).keys[0].tolist() for p in pairs]
        assert np.all(batch.cursors == 0)


@pytest.mark.parametrize("bad", [-1, -5])
def test_bad_gaussian_count_rejected_before_the_cursor_moves(bad):
    st = stream_for(4, (1,))
    draw_uniform(st)
    draw_gaussians(st, 2)
    with pytest.raises(ValueError, match="counts must lie"):
        fill_gaussians(st, np.array([bad]), np.zeros((1, 4)))
    assert st.cursors[0] == 3
    reference = stream_for(4, (1,))
    draw_uniform(reference)
    assert np.array_equal(draw_gaussians(st, 4), draw_gaussians(reference, 6)[2:])


def test_skip_uniform_moves_past_the_uniform_only():
    skipped, drawn = stream_for(6, (1, 1)), stream_for(6, (1, 1))
    skip_uniform(skipped)
    draw_uniform(drawn)
    assert skipped.cursors[0] == drawn.cursors[0] == 1
    assert np.array_equal(draw_gaussians(skipped, 7), draw_gaussians(drawn, 7))
    with pytest.raises(StreamOrderError):
        skip_uniform(skipped)
    with pytest.raises(StreamOrderError):
        draw_uniform(skipped)


def test_fill_gaussians_matches_per_stream_draws_and_keeps_padding():
    counts = np.array([5, 0, 9, 2])
    streams = [stream_for(8, (1, 0, -i)) for i in range(1, 5)]
    singles = [stream_for(8, (1, 0, -i)) for i in range(1, 5)]
    for st, one in zip(streams, singles):
        draw_uniform(st), draw_uniform(one)
        draw_gaussians(st, 3), draw_gaussians(one, 3)
    batch = stacked(streams)
    out = np.full((4, 10), 7.0)
    fill_gaussians(batch, counts, out)
    for row, n, cursor, one in zip(out, counts, batch.cursors, singles):
        assert np.array_equal(row[:n], draw_gaussians(one, int(n)))
        assert np.all(row[n:] == 7.0)
        assert cursor == 4 + n


def test_fill_gaussians_needs_the_uniform_first():
    st = stream_for(0, (5,))
    with pytest.raises(StreamOrderError):
        fill_gaussians(st, np.array([2]), np.zeros((1, 2)))
    assert st.cursors[0] == 0


def test_draws_construct_no_generator(monkeypatch):
    draw_uniform(stream_for(0, (1,)))  # this thread's generator now exists
    made = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        made.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for st in [stream_for(0, (2, 1, i)) for i in range(50)]:
        draw_uniform(st)
        draw_gaussians(st, 11)
    raw_uniform_sequence(0, (3,), 20)
    assert not made


def test_cursor_counts_scalars():
    st = stream_for(5, (9,))
    assert st.cursors[0] == 0
    draw_uniform(st)
    assert st.cursors[0] == 1
    draw_gaussians(st, 3)
    assert st.cursors[0] == 4


def test_gaussian_vector_consumes_exactly_d_scalars():
    st = stream_for(11, (4,))
    draw_uniform(st)
    before = st.cursors[0]
    draw_gaussians(st, 3)
    assert st.cursors[0] - before == 3


def test_successive_gaussian_calls_are_disjoint():
    st = stream_for(13, (6,))
    draw_uniform(st)
    first = draw_gaussians(st, 50)
    second = draw_gaussians(st, 50)
    assert not np.intersect1d(first, second).size
    assert len(np.unique(first)) == 50


def test_batched_and_stepwise_gaussians_agree():
    a = stream_for(3, (8,))
    b = stream_for(3, (8,))
    draw_uniform(a), draw_uniform(b)
    whole = draw_gaussians(a, 12)
    parts = np.concatenate([draw_gaussians(b, 4) for _ in range(3)])
    assert np.array_equal(whole, parts)


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
    return np.random.Philox(key=stream_for(seed, theta).keys[0]).random_raw(count)


def _reference_gaussians(words):
    return ndtri(((words >> np.uint64(11)) + 0.5) * 2.0**-53)


@pytest.mark.parametrize("seed, theta, uniform, words, gaussians", PINNED)
def test_pinned_draws(seed, theta, uniform, words, gaussians):
    raw = _reference_words(seed, theta, 9)
    assert [int(w) for w in raw] == words
    st = stream_for(seed, theta)
    assert draw_uniform(st) == uniform
    assert draw_gaussians(st, 5).tolist() == gaussians
    assert raw_uniform_sequence(seed, theta, 9).tolist() == ((raw >> np.uint64(11)) * 2.0**-53).tolist()


@pytest.mark.parametrize("seed, theta", [(-5, (3,)), (11, (0, -1, -7)), (0, (5, 6, 7, 8, 9, 10, 11, 12))])
def test_split_draws_match_one_draw_and_reference(seed, theta):
    # after the uniform (word 0) the parts cover words 1-3, 4 and 5-9: each
    # part starts at a different position in Philox's 4-word blocks
    split, whole = stream_for(seed, theta), stream_for(seed, theta)
    draw_uniform(split), draw_uniform(whole)
    parts = np.concatenate([draw_gaussians(split, k) for k in (3, 1, 5)])
    assert split.cursors[0] == whole.cursors[0] + 9
    one = draw_gaussians(whole, 9)
    assert np.array_equal(parts, one)
    assert np.array_equal(one, _reference_gaussians(_reference_words(seed, theta, 10)[1:]))


def test_alternating_threads_draw_the_sequential_values():
    labels = [(1, 2), (1, -2)]
    expected = []
    for theta in labels:
        st = stream_for(77, theta)
        expected.append([draw_uniform(st)] + [draw_gaussians(st, k) for k in (1, 3, 4, 6)])

    turn = threading.Condition()
    state = {"next": 0}
    got = [[], []]

    def worker(me):
        st = stream_for(77, labels[me])
        draws = [lambda: draw_uniform(st)]
        draws += [lambda k=k: draw_gaussians(st, k) for k in (1, 3, 4, 6)]
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
        st = stream_for(5, theta)
        return [draw_uniform(st)] + [draw_gaussians(st, k) for k in [3, 500, 1, 2000] * 25]

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
    low, high = stream_for(seed, theta).keys[0].tolist()
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
    keys = keys_at(seed, (4,), np.array(pairs, dtype="<i8").tobytes(), 16)
    return [stream_for(seed, (4,) + p) for p in pairs], StreamBatch(keys)


@pytest.mark.parametrize("size", [rng._KERNEL_MIN_STREAMS - 1, rng._KERNEL_MIN_STREAMS])
def test_batch_uniforms_equal_stream_uniforms(size):
    singles, batch = _batch(size)
    drawn = np.arange(size) % 3 != 0
    r = batch.uniforms(drawn)
    assert r.tolist() == [draw_uniform(st) for st, on in zip(singles, drawn) if on]
    assert np.all(batch.cursors == 1)
    with pytest.raises(StreamOrderError):
        batch.uniforms(drawn)
    with pytest.raises(StreamOrderError):
        batch[np.arange(2)].uniforms(np.ones(2, bool))


@pytest.mark.parametrize("drawn", [np.ones(3, bool), np.array([1, 0, 1, 1]),
                                   np.ones((4, 1), bool), [True, False, True, True]])
def test_uniforms_reject_a_mask_that_is_not_one_bool_per_stream(drawn):
    # a short mask, row indices, a 2-d mask and a list: no cursor moves
    _, batch = _batch(4)
    with pytest.raises(ValueError, match="boolean array of shape"):
        batch.uniforms(drawn)
    assert not batch.cursors.any()
    st = stream_for(21, (4, 1, 0))
    with pytest.raises(ValueError, match="boolean array of shape"):
        st.uniforms(np.array([1]))
    assert st.cursors[0] == 0
    assert batch.uniforms(np.array([True, False, True, True])).tolist() == [
        draw_uniform(stream_for(21, (4, 1, i))) for i in (0, 2, 3)]


@pytest.mark.parametrize("size", [rng._KERNEL_MIN_STREAMS - 1, rng._KERNEL_MIN_STREAMS,
                                  2 * rng._KERNEL_MIN_STREAMS])
@pytest.mark.parametrize("as_batch", [False, True])
@pytest.mark.parametrize("blocks_per_pass", [None, 5])
def test_hybrid_fill_equals_one_stream_draws(size, as_batch, blocks_per_pass, monkeypatch):
    # short and long rows mixed, at cursors 1-5, with counts around the
    # stream-length cutover; in one kernel pass or in many; drawn from a
    # view of one keys_at batch, or from one-row streams moved one by one
    # and then stacked
    if blocks_per_pass:
        monkeypatch.setattr(rng, "_KERNEL_BLOCKS", blocks_per_pass)
    cut = rng._KERNEL_MAX_WORDS
    lengths = [0, 1, 3, 4, 7, cut - 1, cut, cut + 1, 2 * cut + 5]
    cursors = 1 + np.arange(size) % 5
    counts = np.array([lengths[i % len(lengths)] for i in range(size)][::-1])
    singles, batch = _batch(size)
    records = [stream_for(21, (4, 1, i)) for i in range(size)]
    batch.uniforms(np.zeros(size, bool))
    for st, one, cursor in zip(records, singles, cursors.tolist()):
        skip_uniform(st), skip_uniform(one)
        draw_gaussians(st, cursor - 1), draw_gaussians(one, cursor - 1)
    batch.cursors[:] = cursors
    rows = np.arange(size)[::-1]  # a view of the batch in another order
    streams = batch[rows] if as_batch else stacked([records[i] for i in rows])
    out = np.zeros((size, counts.max() + 3))
    fill_gaussians(streams, counts, out)
    for row, n, i in zip(out, counts.tolist(), rows.tolist()):
        assert np.array_equal(row[:n], draw_gaussians(singles[i], n))
        assert np.all(row[n:] == 0.0)
    moved = batch.cursors[rows] if as_batch else streams.cursors
    assert np.array_equal(moved, cursors[rows] + counts)


def test_fill_checks_every_stream_before_drawing():
    streams = [stream_for(2, (i,)) for i in range(3)]
    skip_uniform(streams[0]), skip_uniform(streams[2])
    batch = stacked(streams)
    with pytest.raises(StreamOrderError):
        fill_gaussians(batch, np.array([2, 2, 2]), np.zeros((3, 2)))
    assert batch.cursors.tolist() == [1, 0, 1]
    _, batch = _batch(rng._KERNEL_MIN_STREAMS)
    with pytest.raises(StreamOrderError):
        fill_gaussians(batch, np.ones(len(batch), dtype=np.int64), np.zeros((len(batch), 1)))
    assert not batch.cursors.any()


@pytest.mark.parametrize("size", [3, rng._KERNEL_MIN_STREAMS])
@pytest.mark.parametrize("as_batch", [False, True])
@pytest.mark.parametrize("counts, shape", [
    ("wide", None),      # one count wider than out's rows
    ("negative", None),  # one count below zero
    ("short", None),     # one count fewer than the streams
    (None, "rows"),      # one row of out more than the streams
])
def test_fill_rejects_counts_that_do_not_fit_out(size, as_batch, counts, shape):
    # with fewer than _KERNEL_MIN_STREAMS streams the native generator draws,
    # with more the kernel; either way nothing is drawn and no cursor moves,
    # in one keys_at batch or in a stack of one-row streams
    singles, batch = _batch(size)
    records = [stream_for(21, (4, 1, i)) for i in range(size)]
    batch.uniforms(np.zeros(size, bool))
    for st in records:
        skip_uniform(st)
    streams = batch if as_batch else stacked(records)
    n = np.full(size, 2)
    if counts == "wide":
        n[size // 2] = 4
    elif counts == "negative":
        n[-1] = -1
    elif counts == "short":
        n = n[1:]
    out = np.full((size + (shape == "rows"), 3), 7.0)
    with pytest.raises(ValueError):
        fill_gaussians(streams, n, out)
    assert np.all(streams.cursors == 1)
    assert np.all(out == 7.0)
    m = size // 2
    after = np.empty((1, 3))
    fill_gaussians(streams[np.array([m])], np.array([3]), after)
    skip_uniform(singles[m])
    assert np.array_equal(after[0], draw_gaussians(singles[m], 3))


# ---------------------------------------------------------------------------
# distributional checks


@pytest.fixture(scope="module")
def first_uniforms():
    # one real uniform draw per stream, 1e5 distinct labels (271828, (i,))
    labels = np.arange(100_000, dtype="<i8").tobytes()
    return StreamBatch(keys_at(271828, (), labels, 8)).uniforms(np.ones(100_000, bool))


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
    st = stream_for(17, (2, 2))
    draw_uniform(st)
    z = draw_gaussians(st, 100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var(ddof=1) - 1.0) < 0.02


def test_gaussian_normality():
    st = stream_for(23, (3, 1))
    draw_uniform(st)
    z = draw_gaussians(st, 10_000)
    assert stats.kstest(z, "norm").pvalue > 0.01
