"""Deterministic hierarchical random streams indexed by integer-sequence labels.

Every stream is addressed by a pair ``(root_seed, theta)`` where ``theta`` is
a nonempty tuple of signed integers.  Two streams with different labels are
statistically independent for all practical purposes, and the words of a
stream are a pure function of its address: evaluation order, threading, and
batching never change the values drawn.

Algorithm (version tag ``RNG_ALGORITHM``, fixed for reproducibility):

* key derivation: BLAKE2b-256 keyed with the root seed (an ``int`` or
  ``np.integer`` modulo 2**64, 8 bytes, little endian) over the label
  elements packed as signed 64-bit little-endian words; the first 128 bits
  of the digest key a Philox-4x64 counter-based generator.  BLAKE2b is
  incremental, so a label's state (:func:`label_state`) extends to longer
  labels with one ``copy`` and ``update`` per suffix (:func:`extended`), the
  one loop that derives keys (:func:`keys_of`), for a batch of streams and
  for the estimator's recursion tree alike.
* uniforms: ``(raw >> 11) * 2**-53`` from 64-bit Philox words, in [0, 1).
* Gaussians: inverse normal CDF (``scipy.special.ndtri``) applied to
  ``((raw >> 11) + 0.5) * 2**-53``, which lies in (0, 1).

A stream is its Philox key, a ``(2,)`` row of ``uint64`` words, low word
first; many streams are a ``(P, 2)`` array of keys (:func:`keys_at`), and a
single stream (:func:`stream_for`) is one of one row.  Every stream has one
fixed layout: word 0 is its uniform, and words 1, 2, ... are its standard
Gaussians in consumption order.  A consumer that needs no uniform never
reads word 0, so the Gaussians it sees depend only on the stream address.

Philox is counter based (Salmon et al., SC'11), so word ``w`` of a stream is
a pure function of its key and ``w``: word ``w % 4`` of the 4-word block
``w // 4``, which Philox computes at counter ``w // 4 + 1``.  Each block is
read once: :func:`first_blocks` reads block 0 of a batch of streams, the
uniform and the draw phase of the first three Gaussians, and
:func:`draw_uniforms` takes those three and reads words ``4..n``, block 1
on; :func:`uniforms_to_gaussians` then maps all ``n`` in place.  A block is
read in one of two ways, with the same bits:

* the native generator: a draw sets this thread's one numpy Philox generator
  to the key at its first block and reads on.  It costs about 3 µs per
  keying and 7 ns per word.
* the kernel: :func:`philox_blocks`, Philox-4x64-10 in numpy ``uint64``
  arithmetic, computes the blocks of many ``(key, block)`` pairs in one
  vectorized pass.  It costs about 0.1-0.2 ms per call, whatever the batch
  size, and 30-100 ns per word.

A batch of at least ``_KERNEL_MIN_STREAMS`` streams reads its block 0 from
the kernel in one pass, and from block 1 on every draw of at most
``_KERNEL_MAX_WORDS`` words, in passes of about ``_KERNEL_BLOCKS`` blocks,
which bound its scratch memory.  Longer draws and smaller batches use the
native generator.
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
# A longer draw reads natively from block 1: past this length one native keying
# (about 3-5 µs) costs less than the kernel's premium per word.  Measured
# crossover: 40-48 words, 1000 streams from word 1.
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


def _packed(label) -> bytes:
    """Label elements as signed 64-bit little-endian words; integers only."""
    for el in label:
        if type(el) is not int and (isinstance(el, bool) or not isinstance(el, np.integer)):
            raise TypeError(f"stream label elements must be integers, got {el!r}")
    try:
        return struct.pack(f"<{len(label)}q", *label)
    except struct.error as exc:
        raise OverflowError(f"stream label elements must fit in 64 bits: {exc}") from None


def label_state(root_seed: int, theta: tuple):
    """The BLAKE2b state of the label ``theta`` under ``root_seed``: keyed with
    the seed, fed the packed label.  Extending it (:func:`extended`) and taking
    its digest (:func:`keys_of`) gives the keys of longer labels."""
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


def _generator_at(key, block: int) -> np.random.Generator:
    """This thread's generator, set to block ``block`` of the stream keyed by
    ``key``, its ``(low, high)`` word pair: the one place that keys a native
    Philox generator.  Its ``random`` reads on as uniforms ``(raw >> 11) * 2**-53``.
    """
    try:
        gen = _local.generator
    except AttributeError:
        gen = _local.generator = np.random.Generator(np.random.Philox(key=0))
    # Philox increments the counter before it computes a block
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (block, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def first_blocks(keys: np.ndarray) -> np.ndarray:
    """Block 0 of the stream keyed by each row of ``keys``, as ``(P, 4)``
    uniforms in [0, 1): column 0 is the stream's uniform, and columns 1-3
    the draw phase of its first three Gaussians."""
    if len(keys) >= _KERNEL_MIN_STREAMS:
        return _uniforms(philox_blocks(keys, np.zeros(len(keys), dtype=np.int64)))
    return np.array([_generator_at(key, 0).random(4) for key in keys.tolist()]).reshape(-1, 4)


def _draw(keys: np.ndarray, counts: np.ndarray, out: np.ndarray) -> None:
    """Write words ``4`` to ``counts[i]`` of the stream keyed by ``keys[i]``,
    block 1 on, into ``out[i, 3:counts[i]]``, as uniforms in [0, 1)."""
    kernel = (counts <= _KERNEL_MAX_WORDS) & (len(keys) >= _KERNEL_MIN_STREAMS)
    rows = np.flatnonzero(kernel & (counts > 3))
    n_blocks = counts[rows] // 4
    for part in np.split(rows, np.flatnonzero(np.diff((np.cumsum(n_blocks) - 1)
                                                      // _KERNEL_BLOCKS)) + 1):
        if len(part):
            _kernel_draw(keys[part], counts[part], part, out)
    rows = np.flatnonzero(~kernel & (counts > 3))
    for i, key, n in zip(rows.tolist(), keys[rows].tolist(), counts[rows].tolist()):
        _generator_at(key, 1).random(out=out[i, 3:n])


def _kernel_draw(keys, counts, rows, out) -> None:
    """Write words ``4`` to ``counts[i]`` of the stream keyed by ``keys[i]``
    into ``out[rows[i], 3:counts[i]]``, in one kernel pass."""
    n_blocks = counts // 4
    block_starts = np.cumsum(n_blocks) - n_blocks
    blocks = np.arange(block_starts[-1] + n_blocks[-1]) - np.repeat(block_starts - 1, n_blocks)
    words = philox_blocks(np.repeat(keys, n_blocks, axis=0), blocks).reshape(-1)
    # word 4 + j of draw i is kernel word base[i] + j and goes to out[rows[i], 3 + j]
    base, tails = 4 * block_starts, counts - 3
    index = np.repeat(base - (np.cumsum(tails) - tails), tails)
    index += np.arange(len(index))
    words = words[index]
    index += np.repeat(rows * out.shape[1] + 3 - base, tails)
    np.put(out, index, _uniforms(words))


def draw_uniforms(keys: np.ndarray, counts, out: np.ndarray, block0: np.ndarray) -> None:
    """Words ``1`` to ``counts[i]`` of the stream keyed by ``keys[i]``, as
    uniforms in [0, 1), into ``out[i, :counts[i]]``: the draw phase of its
    first ``counts[i]`` Gaussians.  Words 1-3 come from ``block0[i]``, its
    block 0 as :func:`first_blocks` gives it.

    ``counts`` is an integer array and ``out`` a float64 ``(len(keys),
    width)`` array; the rest of each row is left as it is.  Checks every
    count before it draws.
    """
    if not (len(counts) == len(keys) == out.shape[0] == len(block0)):
        raise ValueError(f"need one count, one row of out and one block 0 per stream, got "
                         f"{len(counts)} counts, {out.shape[0]} rows and {len(block0)} blocks "
                         f"for {len(keys)} streams")
    if np.any((counts < 0) | (counts > out.shape[1])):
        raise ValueError(f"counts must lie in [0, {out.shape[1]}], the width of out")
    width = min(3, out.shape[1])
    np.copyto(out[:, :width], block0[:, 1:1 + width], where=np.arange(width) < counts[:, None])
    _draw(keys, counts, out)


def uniforms_to_gaussians(counts, out: np.ndarray) -> None:
    """The map phase of a stream's Gaussians: ``out[i, :counts[i]]``,
    uniforms from :func:`draw_uniforms`, become their Gaussians in place.

    Whole-buffer ufuncs only, element by element, so another thread may run
    it while the GIL is elsewhere.
    """
    drawn = np.arange(out.shape[1]) < counts[:, None]
    np.add(out, _HALF_ULP, out=out, where=drawn)
    ndtri(out, out=out, where=drawn)


def stream_for(root_seed: int, theta: tuple) -> np.ndarray:
    """The key of the stream addressed by ``(root_seed, theta)``, as the
    ``(1, 2)`` array that :func:`keys_at` gives.

    Deterministic: the same address always yields the same key and so
    bit-identical words.  The root seed is reduced modulo 2**64.  Label elements must
    be integers (``int`` or ``np.integer``, not ``bool``).
    """
    check_label(theta)
    return keys_at(root_seed, (), _packed(theta), 8 * len(theta))


def keys_at(root_seed: int, parent: tuple, suffixes: bytes, width: int) -> np.ndarray:
    """The Philox keys of the labels ``parent`` plus each packed suffix, as
    ``(P, 2)`` uint64 words, low word first.

    ``suffixes`` holds one ``width``-byte suffix after another, each label
    elements packed as signed 64-bit little-endian words.
    Hashes the root seed and ``parent`` once for the whole batch.
    """
    return keys_of(extended([label_state(root_seed, parent)], suffixes, width))


def extended(parents, suffixes: bytes, width: int):
    """The label states of each state of ``parents`` extended by each
    ``width``-byte packed suffix of ``suffixes``, parent by parent, as an
    iterator: one ``copy`` and ``update`` each, the one way a label grows."""
    for parent in parents:
        for lo in range(0, len(suffixes), width):
            state = parent.copy()
            state.update(suffixes[lo: lo + width])
            yield state


def keys_of(states) -> np.ndarray:
    """The Philox keys of label states, as ``(P, 2)`` uint64 words, low word
    first: a key is the first 16 bytes of its state's digest, little endian."""
    digests = b"".join([state.digest() for state in states])
    return np.frombuffer(digests, dtype="<u8").reshape(-1, 4)[:, :2]
