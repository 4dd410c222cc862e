"""Philox4x64-10 draws, bit for bit those of numpy's ``Philox`` generator.

``Philox(seed)`` gives the words of ``np.random.default_rng(np.random.Philox(seed))``
for the two draws the library makes, so no recipe loads ``numpy.random``:

- :meth:`Philox.uniform` is ``uniform(low, high, size)``: one word w per
  value, ``low + (high - low) * ((w >> 11) * 2**-53)``;
- :meth:`Philox.signs` is ``choice((-1.0, 1.0), size)``: one 32-bit half per
  value, +1 when its top bit is set, the low half of a word before its high
  half.  An odd count leaves the high half of its last word to the next sign
  draw; uniform draws read whole words and leave it alone.

The key is ``SeedSequence(seed).generate_state(2, np.uint64)``, formed with
Python ints.  Block i = 1, 2, ... encrypts the counter (i, 0, 0, 0) and gives
four words in order.  The generator is counter-based, so blocks are computed
ahead into a buffer without changing any word: each refill doubles the last
one, from the first request up to ``BLOCK_ENTRIES`` counters, so a short
draw stays cheap and a long one runs in passes of bounded temporaries.  A
draw allocates its output before it computes any block.
"""

from __future__ import annotations

import numpy as np

import npdisclab

from . import DomainError

_M32 = 0xFFFFFFFF
_M64 = 2**64 - 1
_LOW, _HIGH = np.uint64(_M32), np.uint64(32)  # a word's low half, its high half's shift

#: Philox4x64 round multipliers and key increments (Salmon et al., SC'11)
_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10


def _seed_key(seed: int) -> tuple[int, int]:
    """numpy's ``SeedSequence(seed).generate_state(2, np.uint64)``: the seed's
    little-endian 32-bit words hashed into a pool of four, then four output
    words paired low word first."""
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    out = []
    for value in pool:
        value ^= const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, the high word built
    from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _M32), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW, x >> _HIGH
    t = x_hi * m_lo
    t += (x_lo * m_lo) >> _HIGH
    mid = t & _LOW
    mid += x_lo * m_hi
    t >>= _HIGH
    t += x_hi * m_hi
    t += mid >> _HIGH
    return t, x * np.uint64(m)


class Philox:
    """The Philox4x64-10 stream keyed by ``seed`` (an integer >= 0)."""

    def __init__(self, seed: int):
        key = _seed_key(seed)
        self._keys = [tuple(np.uint64(k + r * bump & _M64) for k, bump in zip(key, _BUMP))
                      for r in range(_ROUNDS)]
        self._counter = 1  # counter of the next block to compute
        self._refill = 0  # counters of the last refill
        self._ahead = np.empty(0, np.uint64)  # computed words not yet drawn
        self._half = None  # sign bit of a high half left by an odd sign draw

    def _blocks(self, count: int) -> np.ndarray:
        """The words of the next ``count`` blocks, in stream order."""
        x0 = np.arange(self._counter, self._counter + count, dtype=np.uint64)
        x1 = x2 = x3 = np.zeros(count, np.uint64)
        self._counter += count
        for k0, k1 in self._keys:
            hi0, lo0 = _mulhilo(_MULT[0], x0)
            hi1, lo1 = _mulhilo(_MULT[1], x2)
            hi1 ^= x1
            hi1 ^= k0
            hi0 ^= x3
            hi0 ^= k1
            x0, x1, x2, x3 = hi1, lo1, hi0, lo0
        return np.stack((x0, x1, x2, x3), axis=1).reshape(-1)

    def _words(self, n: int):
        """The next ``n`` words, yielded in consecutive pieces."""
        while n > 0:
            if not self._ahead.size:
                self._refill = min(npdisclab.BLOCK_ENTRIES, max(-(-n // 4), 2 * self._refill))
                self._ahead = self._blocks(self._refill)
            piece = self._ahead[:n]
            self._ahead = self._ahead[piece.size:]
            n -= piece.size
            yield piece

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Doubles uniform on [low, high), one word each."""
        out = np.empty(size)
        flat = out.reshape(-1)
        pos = 0
        for words in self._words(flat.size):
            flat[pos:pos + words.size] = words >> np.uint64(11)
            pos += words.size
        out *= 2.0**-53
        out *= high - low
        out += low
        return out

    def signs(self, size) -> np.ndarray:
        """±1.0, one 32-bit half each: +1 when the half's top bit is set."""
        out = np.empty(size)
        flat = out.reshape(-1)
        pos = 0
        if flat.size and self._half is not None:
            flat[0], self._half = self._half, None
            pos = 1
        for words in self._words((flat.size - pos + 1) // 2):
            bits = np.stack((words >> np.uint64(31) & np.uint64(1), words >> np.uint64(63)),
                            axis=1).reshape(-1)
            take = min(bits.size, flat.size - pos)
            flat[pos:pos + take] = bits[:take]
            if take < bits.size:
                self._half = bits[-1]
            pos += take
        out *= 2.0
        out -= 1.0
        return out
