"""Deterministic hierarchical random streams indexed by integer-sequence labels.

Every stream is addressed by a pair ``(root_seed, theta)`` where ``theta`` is
a nonempty tuple of signed integers.  Two streams with different labels are
statistically independent for all practical purposes, and the draw sequence
of a stream is a pure function of its address: evaluation order, threading,
and batching never change the values drawn.

Algorithm (version tag ``RNG_ALGORITHM``, fixed for reproducibility):

* key derivation: BLAKE2b-256 keyed with the root seed (an ``int`` or
  ``np.integer`` modulo 2**64, 8 bytes, little endian) over the label
  elements packed as signed 64-bit little-endian words; the first 128 bits
  of the digest key a Philox-4x64 counter-based generator.
* uniforms: ``(raw >> 11) * 2**-53`` from 64-bit Philox words, in [0, 1).
* Gaussians: inverse normal CDF (``scipy.special.ndtri``) applied to
  ``((raw >> 11) + 0.5) * 2**-53``, which lies in (0, 1).

Within a stream the draw order is fixed: exactly one uniform first, then
standard Gaussian scalars in consumption order.  :meth:`StreamBatch.uniforms`
draws the uniform, or skips it for callers that do not need it, so the
Gaussian subsequence seen by a consumer depends only on the stream address.
The Gaussians come in two phases: :func:`draw_uniforms` writes the next words
as uniforms, and :func:`uniforms_to_gaussians` maps them in place.

A stream is a key plus a cursor, and owns no generator.  A
:class:`StreamBatch` holds many as arrays; a single stream
(:func:`stream_for`) is a batch of one row.  Philox is counter based
(Salmon et al., SC'11), so word ``w`` of a stream is a pure function of its
key and ``w``: word ``w % 4`` of the 4-word block ``w // 4``, which Philox
computes at counter ``w // 4 + 1``.  Words are read in one of two ways, with
the same bits:

* the native generator: a draw sets this thread's one numpy Philox generator
  to the key at the block that holds the cursor, discards the words before
  it, and reads on.  It costs about 3 µs per keying and 7 ns per word.
* the kernel: :func:`philox_blocks`, Philox-4x64-10 in numpy ``uint64``
  arithmetic, computes the blocks of many ``(key, block)`` pairs in one
  vectorized pass.  It costs about 0.1-0.2 ms per call, whatever the batch
  size, and 30-100 ns per word.

A batch of at least ``_KERNEL_MIN_STREAMS`` streams draws from the kernel
every word of a stream that draws at most ``_KERNEL_MAX_WORDS`` words, and
the rest of the cursor's block of a longer one, which the native generator
continues from the next block with no words to discard.  The kernel runs in
passes of about ``_KERNEL_BLOCKS`` blocks, which bounds its scratch memory.
Smaller batches, single streams among them, use the native generator alone.
"""

from __future__ import annotations

import hashlib
import struct
import threading

import numpy as np
from scipy.special import ndtri

RNG_ALGORITHM = "blake2b256/philox4x64/inverse-cdf v1"

# (raw >> 11) * 2**-53 + 2**-54 rounds the same real number as
# ((raw >> 11) + 0.5) * 2**-53, and scaling by a power of two is exact
_HALF_ULP = 2.0**-54

# A batch of fewer streams draws from the native generator alone: the kernel's
# fixed cost per call (about 0.1-0.2 ms) pays for 30-60 native keyings.
# Measured crossover (2-vCPU VM, numpy 2.4): 48-64 streams that draw 1 word
# each, 96-192 streams that draw 11 or 27 words each.
_KERNEL_MIN_STREAMS = 128
# A longer draw takes only the rest of its cursor's block from the kernel: past
# this length one native keying (about 3-5 µs) costs less than the kernel's
# premium per word.  Measured crossover: 40-48 words, 1000 streams at cursor 1.
_KERNEL_MAX_WORDS = 40
# Kernel passes of about this many blocks keep its scratch (about 150 bytes
# per block, plus about 30 per word for the scatter into rows) near 0.6 MiB.
# One pass per heat-run chunk (about 6k blocks) raised a worker process's peak
# RSS by 0.5 MiB over per-stream native draws; passes of 4096 blocks did not.
_KERNEL_BLOCKS = 1 << 12

# Philox-4x64-10 as philox_blocks lays it out: the multipliers of counter
# words 2 and 0, split into 32-bit halves, and what each round adds to the key
_PHILOX_M = np.array([[0xCA5A826395121157], [0xD2E7470EE14C6C93]], dtype=np.uint64)
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32
_PHILOX_BUMPS = (np.arange(10, dtype=np.uint64)[:, None, None]
                 * np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64))


class StreamOrderError(RuntimeError):
    """Raised when draws are requested out of the fixed stream order."""


def _packed(label) -> bytes:
    """Label elements as signed 64-bit little-endian words; integers only."""
    for el in label:
        if type(el) is not int and (isinstance(el, bool) or not isinstance(el, np.integer)):
            raise TypeError(f"stream label elements must be integers, got {el!r}")
    try:
        return struct.pack(f"<{len(label)}q", *label)
    except struct.error as exc:
        raise OverflowError(f"stream label elements must fit in 64 bits: {exc}") from None


def _hasher(root_seed: int, theta: tuple):
    if isinstance(root_seed, bool) or not isinstance(root_seed, (int, np.integer)):
        raise TypeError(f"root seed must be an integer, got {root_seed!r}")
    seed_bytes = (int(root_seed) % 2**64).to_bytes(8, "little")
    h = hashlib.blake2b(digest_size=32, key=seed_bytes)
    h.update(_packed(theta))
    return h


def check_label(theta: tuple) -> None:
    """Raise unless ``theta`` is a valid stream label: nonempty, integers only,
    each fitting in 64 bits."""
    if len(theta) < 1:
        raise ValueError("stream label must be a nonempty integer sequence")
    _packed(theta)


def philox_blocks(keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Block ``blocks[i]`` of the Philox-4x64-10 stream keyed by ``keys[i]``, for every ``i``.

    ``keys`` is ``(B, 2)`` uint64, low word first, and ``blocks`` ``(B,)``
    nonnegative integers.  Returns ``(B, 4)`` uint64: row ``i`` holds words
    ``4*blocks[i]`` to ``4*blocks[i] + 3`` of the stream, as numpy's
    ``Philox(key=...).random_raw`` gives them.
    """
    # counter words (c0, c2) and (c1, c3); Philox computes block b at counter b + 1
    even = np.zeros((2, len(keys)), dtype=np.uint64)
    np.add(blocks, 1, out=even[0], casting="unsafe")
    odd = np.zeros_like(even)
    low, high, t, u = (np.empty_like(even) for _ in range(4))
    for bump in _PHILOX_BUMPS:
        a = even[::-1]  # (c2, c0), the operands of the multipliers
        # the high words of the 128-bit products a * M, from 32-bit halves
        np.bitwise_and(a, _LOW32, out=low)
        np.right_shift(a, _SHIFT32, out=high)
        np.multiply(low, _PHILOX_M_LO, out=t)
        t >>= _SHIFT32
        np.multiply(high, _PHILOX_M_LO, out=u)
        u += t
        np.bitwise_and(u, _LOW32, out=t)
        low *= _PHILOX_M_HI
        low += t
        high *= _PHILOX_M_HI
        u >>= _SHIFT32
        high += u
        low >>= _SHIFT32
        high += low
        # (c0, c1, c2, c3) <- (hi(c2*M1) ^ c1 ^ k0, lo(c2*M1), hi(c0*M0) ^ c3 ^ k1, lo(c0*M0))
        high ^= odd
        np.add(keys.T, bump, out=t)  # the round key
        high ^= t
        np.multiply(a, _PHILOX_M, out=odd)
        even, high = high, even
    return np.stack((even[0], odd[0], even[1], odd[1]), axis=1)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Raw Philox words as the uniforms ``(raw >> 11) * 2**-53`` that numpy's
    ``Generator.random`` makes of them."""
    return (words >> np.uint64(11)) * 2.0**-53


_local = threading.local()


def _generator_at(key, word: int) -> np.random.Generator:
    """This thread's generator, set to word ``word`` of the stream keyed by ``key``.

    ``key`` is the key's ``(low, high)`` word pair.  The one place that keys a
    native Philox generator.  Its ``random`` reads the next words as uniforms
    ``(raw >> 11) * 2**-53``.
    """
    try:
        gen = _local.generator
    except AttributeError:
        gen = _local.generator = np.random.Generator(np.random.Philox(key=0))
    block, skip = divmod(word, 4)
    # Philox increments the counter before it computes a block
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (block, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    if skip:
        gen.bit_generator.random_raw(skip)
    return gen


def _draw(keys: np.ndarray, cursors: np.ndarray, counts: np.ndarray, out: np.ndarray) -> None:
    """Write words ``cursors[i]`` to ``cursors[i] + counts[i] - 1`` of the stream
    keyed by ``keys[i]`` into ``out[i, :counts[i]]``, as uniforms in [0, 1)."""
    if len(keys) < _KERNEL_MIN_STREAMS:
        for key, word, n, row in zip(keys.tolist(), cursors.tolist(), counts.tolist(), out):
            if n:
                _generator_at(key, word).random(out=row[:n])
        return
    # a long draw takes the rest of its cursor's block from the kernel, so the
    # native generator starts on a block boundary
    long = counts > _KERNEL_MAX_WORDS
    heads = np.where(long, -cursors % 4, counts)
    rows = np.flatnonzero(heads)
    n_blocks = (cursors[rows] % 4 + heads[rows] + 3) // 4
    for part in np.split(rows, np.flatnonzero(np.diff((np.cumsum(n_blocks) - 1)
                                                      // _KERNEL_BLOCKS)) + 1):
        if len(part):
            _kernel_draw(keys[part], cursors[part], heads[part], part, out)
    rows = np.flatnonzero(long)
    for i, key, word, head, n in zip(rows.tolist(), keys[rows].tolist(), cursors[rows].tolist(),
                                     heads[rows].tolist(), counts[rows].tolist()):
        _generator_at(key, word + head).random(out=out[i, head:n])


def _kernel_draw(keys, cursors, counts, rows, out) -> None:
    """Write words ``cursors[i]`` to ``cursors[i] + counts[i] - 1`` of the stream
    keyed by ``keys[i]`` into ``out[rows[i], :counts[i]]``, in one kernel pass."""
    first, offset = np.divmod(cursors, 4)
    n_blocks = (offset + counts + 3) // 4
    block_starts = np.cumsum(n_blocks) - n_blocks
    blocks = np.arange(block_starts[-1] + n_blocks[-1]) + np.repeat(first - block_starts, n_blocks)
    words = philox_blocks(np.repeat(keys, n_blocks, axis=0), blocks).reshape(-1)
    # word j of draw i is kernel word base[i] + j and goes to out[rows[i], j]
    base = 4 * block_starts + offset
    index = np.repeat(base - (np.cumsum(counts) - counts), counts)
    index += np.arange(len(index))
    words = words[index]
    index += np.repeat(rows * out.shape[1] - base, counts)
    np.put(out, index, _uniforms(words))


class StreamBatch:
    """Many streams as arrays, for batched draws.

    Row ``i`` is the stream with Philox key ``keys[i]`` (``(P, 2)`` uint64,
    low word first) and cursor ``cursors[i]``, the number of scalars it has
    consumed (the word offset of its next draw); new streams start at cursor
    0.  ``batch[rows]``, for an integer array ``rows``, is a view of those
    rows: its draws move the cursors of ``batch``.
    """

    __slots__ = ("keys", "cursors", "rows")

    def __init__(self, keys: np.ndarray, cursors=None, rows=None):
        self.keys = keys
        self.cursors = np.zeros(len(keys), dtype=np.int64) if cursors is None else cursors
        self.rows = rows

    def __len__(self) -> int:
        return len(self.keys) if self.rows is None else len(self.rows)

    def __getitem__(self, rows) -> "StreamBatch":
        return StreamBatch(self.keys, self.cursors, rows if self.rows is None else self.rows[rows])

    def _arrays(self) -> tuple:
        if self.rows is None:
            return self.keys, self.cursors
        return self.keys.take(self.rows, axis=0), self.cursors[self.rows]

    def uniforms(self, drawn: np.ndarray) -> np.ndarray:
        """Take every stream's first draw: draw the uniforms in [0, 1) of the
        streams where the boolean array ``drawn`` holds, in row order, and
        skip the others'.  Checks ``drawn`` and every cursor before any
        cursor moves."""
        if not (isinstance(drawn, np.ndarray) and drawn.dtype == bool
                and drawn.shape == (len(self),)):
            raise ValueError(f"drawn must be a boolean array of shape ({len(self)},)")
        keys, cursors = self._arrays()
        if np.count_nonzero(cursors):
            raise StreamOrderError("uniform must be the first draw on a stream")
        self._advance(1)
        keys = keys[drawn]
        if len(keys) < _KERNEL_MIN_STREAMS:
            return np.array([_generator_at(key, 0).random() for key in keys.tolist()])
        return _uniforms(philox_blocks(keys, np.zeros(len(keys), dtype=np.int64))[:, 0])

    def _advance(self, counts) -> None:
        if self.rows is None:
            self.cursors += counts
        else:
            self.cursors[self.rows] += counts


def draw_uniforms(streams: StreamBatch, counts, out: np.ndarray) -> None:
    """Draw the next ``counts[i]`` words of ``streams[i]`` as uniforms in [0, 1)
    into ``out[i, :counts[i]]``: the draw phase of their Gaussians.

    ``counts`` is an integer array and ``out`` a float64 ``(len(streams),
    width)`` array; the rest of each row is left as it is.  Every stream must
    be past its uniform, and its cursor moves by its count.  Checks every
    stream and count before it draws or moves a cursor.
    """
    keys, cursors = streams._arrays()
    if not (len(counts) == len(cursors) == out.shape[0]):
        raise ValueError(f"need one count and one row of out per stream, got {len(counts)} "
                         f"counts and {out.shape[0]} rows for {len(cursors)} streams")
    if np.any((counts < 0) | (counts > out.shape[1])):
        raise ValueError(f"counts must lie in [0, {out.shape[1]}], the width of out")
    if np.count_nonzero(cursors) < len(cursors):
        raise StreamOrderError("the stream uniform must be drawn (or skipped) first")
    _draw(keys, cursors, counts, out)
    streams._advance(counts)


def uniforms_to_gaussians(counts, out: np.ndarray) -> None:
    """The map phase of a stream's Gaussians, after its one uniform:
    ``out[i, :counts[i]]``, uniforms from :func:`draw_uniforms`, become their
    Gaussians in place.

    Whole-buffer ufuncs only, element by element, so another thread may run
    it while the GIL is elsewhere.
    """
    drawn = np.arange(out.shape[1]) < counts[:, None]
    np.add(out, _HALF_ULP, out=out, where=drawn)
    ndtri(out, out=out, where=drawn)


def stream_for(root_seed: int, theta: tuple) -> StreamBatch:
    """The stream addressed by ``(root_seed, theta)``, a one-row batch at cursor 0.

    Deterministic: the same address always yields bit-identical draw
    sequences.  The root seed is reduced modulo 2**64.  Label elements must
    be integers (``int`` or ``np.integer``, not ``bool``).
    """
    check_label(theta)
    return StreamBatch(keys_at(root_seed, (), _packed(theta), 8 * len(theta)))


def keys_at(root_seed: int, parent: tuple, suffixes: bytes, width: int) -> np.ndarray:
    """The Philox keys of the labels ``parent`` plus each packed suffix, as
    ``(P, 2)`` uint64 words, low word first (see :class:`StreamBatch`).

    ``suffixes`` holds one ``width``-byte suffix after another, each label
    elements packed as signed 64-bit little-endian words.
    Hashes the root seed and ``parent`` once for the whole batch.
    """
    h = _hasher(root_seed, parent)
    digests = []
    for lo in range(0, len(suffixes), width):
        h_child = h.copy()
        h_child.update(suffixes[lo: lo + width])
        digests.append(h_child.digest())
    # a key is the first 16 digest bytes, little endian
    return np.frombuffer(b"".join(digests), dtype="<u8").reshape(-1, 4)[:, :2]
