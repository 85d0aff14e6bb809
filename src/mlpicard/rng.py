"""Deterministic hierarchical random streams indexed by integer-sequence labels.

Every stream is addressed by a pair ``(root_seed, theta)`` where ``theta`` is
a nonempty tuple of signed integers.  Two streams with different labels are
statistically independent for all practical purposes, and the draw sequence
of a stream is a pure function of its address: evaluation order, threading,
and batching never change the values drawn.

Algorithm (version tag ``RNG_ALGORITHM``, fixed for reproducibility):

* key derivation: BLAKE2b-256 keyed with the root seed (8 bytes, little
  endian) over the label elements packed as signed 64-bit little-endian
  words; the first 128 bits of the digest key a Philox-4x64 counter-based
  generator.
* uniforms: ``(raw >> 11) * 2**-53`` from 64-bit Philox words, in [0, 1).
* Gaussians: inverse normal CDF (``scipy.special.ndtri``) applied to
  ``((raw >> 11) + 0.5) * 2**-53``, which lies in (0, 1).

Within a stream the draw order is fixed: exactly one uniform first, then
standard Gaussian scalars in consumption order.  Callers that do not need
the uniform skip it, so the Gaussian subsequence seen by a consumer depends
only on the stream address.

A stream is a key plus a cursor, and owns no generator.  Philox is counter
based, so word ``w`` of a stream is a pure function of its key and ``w``:
a draw sets this thread's one Philox generator to the key at the 4-word
block that holds the cursor, discards the words before it, and reads on.
"""

from __future__ import annotations

import hashlib
import struct
import threading

import numpy as np
from scipy.special import ndtri

RNG_ALGORITHM = "blake2b256/philox4x64/inverse-cdf v1"

ThetaIndex = tuple  # nonempty tuple of signed ints

_U64_MASK = 0xFFFFFFFFFFFFFFFF
# (raw >> 11) * 2**-53 + 2**-54 rounds the same real number as
# ((raw >> 11) + 0.5) * 2**-53, and scaling by a power of two is exact
_HALF_ULP = 2.0**-54


class StreamOrderError(RuntimeError):
    """Raised when draws are requested out of the fixed stream order."""


def child(parent: ThetaIndex, a: int, b: int) -> ThetaIndex:
    """Return the label ``parent`` extended by the pair ``(a, b)``."""
    return tuple(parent) + (a, b)


def _packed(label) -> bytes:
    """Label elements as signed 64-bit little-endian words; integers only."""
    for el in label:
        if type(el) is not int and (isinstance(el, bool) or not isinstance(el, np.integer)):
            raise TypeError(f"stream label elements must be integers, got {el!r}")
    try:
        return struct.pack(f"<{len(label)}q", *label)
    except struct.error as exc:
        raise OverflowError(f"stream label elements must fit in 64 bits: {exc}") from None


def _hasher(root_seed: int, theta: ThetaIndex):
    seed_bytes = (root_seed & _U64_MASK).to_bytes(8, "little")
    h = hashlib.blake2b(digest_size=32, key=seed_bytes)
    h.update(_packed(theta))
    return h


def _key(h) -> int:
    return int.from_bytes(h.digest()[:16], "little")


def check_label(theta: ThetaIndex) -> None:
    """Raise unless ``theta`` is a valid stream label: nonempty, integers only,
    each fitting in 64 bits."""
    if len(theta) < 1:
        raise ValueError("stream label must be a nonempty integer sequence")
    _packed(theta)


def _philox_key(root_seed: int, theta: ThetaIndex) -> int:
    check_label(theta)
    return _key(_hasher(root_seed, theta))


_local = threading.local()


def _generator_at(key: int, word: int) -> np.random.Generator:
    """This thread's generator, set to word ``word`` of the stream keyed by ``key``.

    The one place that keys a Philox generator.  Its ``random`` reads the
    next words as uniforms ``(raw >> 11) * 2**-53``.
    """
    try:
        gen = _local.generator
    except AttributeError:
        gen = _local.generator = np.random.Generator(np.random.Philox(key=0))
    block, skip = divmod(word, 4)
    # Philox increments the counter before it computes a block
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (block, 0, 0, 0), "key": (key & _U64_MASK, key >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    if skip:
        gen.bit_generator.random_raw(skip)
    return gen


class RandomStream:
    """Single-consumer draw source for one ``(root_seed, theta)`` address.

    A record of the Philox ``key`` and the ``cursor``, the number of scalars
    consumed so far (the word offset of the next draw).  The first draw must
    be :meth:`uniform` or :meth:`skip_uniform`; all later draws are Gaussian.
    """

    __slots__ = ("key", "cursor")

    def __init__(self, key: int):
        self.key = key
        self.cursor = 0

    def uniform(self) -> float:
        """Draw the stream's single uniform in [0, 1).  Must be the first draw."""
        self.skip_uniform()
        return _generator_at(self.key, 0).random()

    def skip_uniform(self) -> None:
        """Move past the stream's uniform without drawing it."""
        if self.cursor:
            raise StreamOrderError("uniform must be the first draw on a stream")
        self.cursor = 1

    def gaussians(self, n: int) -> np.ndarray:
        """Draw ``n`` independent standard normal scalars as a float64 array."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"gaussians needs an integer count, got {n!r}")
        if n < 0:
            raise ValueError(f"gaussians needs a count >= 0, got {n}")
        out = np.empty((1, n))
        fill_gaussians([self], np.array([n]), out)
        return out[0]


def fill_gaussians(streams, counts, out: np.ndarray) -> None:
    """Draw the next ``counts[i]`` Gaussians of ``streams[i]`` into ``out[i, :counts[i]]``.

    ``counts`` is an integer array and ``out`` a C-contiguous float64
    ``(len(streams), width)`` array; the rest of each row is left as it is.  Every stream must be past its
    uniform, and its cursor moves by its count.  The raw words land in
    ``out`` as uniforms, and one inverse-CDF pass maps them in place.
    """
    for st, n, row in zip(streams, counts.tolist(), out):
        if not st.cursor:
            raise StreamOrderError("the stream uniform must be drawn (or skipped) first")
        if n:
            _generator_at(st.key, st.cursor).random(out=row[:n])
            st.cursor += n
    drawn = np.arange(out.shape[1]) < counts[:, None]
    np.add(out, _HALF_ULP, out=out, where=drawn)
    ndtri(out, out=out, where=drawn)


def stream_for(root_seed: int, theta: ThetaIndex) -> RandomStream:
    """Create the stream addressed by ``(root_seed, theta)``.

    Deterministic: the same address always yields bit-identical draw
    sequences.  The root seed is reduced modulo 2**64.  Label elements must
    be integers (``int`` or ``np.integer``, not ``bool``).
    """
    return RandomStream(_philox_key(root_seed, theta))


def streams_for(root_seed: int, parent: ThetaIndex, pairs) -> list:
    """The streams ``stream_for(root_seed, parent + (a, b))`` for ``(a, b)`` in ``pairs``.

    Hashes the root seed and ``parent`` once for the whole batch.
    """
    return streams_at(root_seed, parent, _packed([el for a, b in pairs for el in (a, b)]), 16)


def streams_at(root_seed: int, parent: ThetaIndex, suffixes: bytes, width: int) -> list:
    """The streams of the labels ``parent`` plus each packed suffix.

    ``suffixes`` holds one ``width``-byte suffix after another, each label
    elements packed as by ``stream_for`` (signed 64-bit little endian).
    Hashes the root seed and ``parent`` once for the whole batch.
    """
    h = _hasher(root_seed, parent)
    streams = []
    for lo in range(0, len(suffixes), width):
        h_child = h.copy()
        h_child.update(suffixes[lo: lo + width])
        streams.append(RandomStream(_key(h_child)))
    return streams


def raw_uniform_sequence(root_seed: int, theta: ThetaIndex, count: int) -> np.ndarray:
    """Uniform [0, 1) view of a stream's raw word sequence, for statistics.

    Test instrumentation only: production consumers obey the one-uniform
    draw order, but distributional checks (correlation, KS) need long
    uniform sequences from a single label.
    """
    return _generator_at(_philox_key(root_seed, theta), 0).random(count)
