"""A seeded Kronecker (R_d) net: the random pairs of ``distortion``.

Coordinate j of point p is w = ((offset + p) * A_j + 2**63) mod 2**64, with
offset = seed * _OFFSET_MULT mod 2**64 and A_j = round(2**64 * phi_d**-j) made
odd, phi_d > 0 solving x**(d+1) = x + 1 (Roberts 2018).  A draw of shape
(count, *shape) takes the next ``count`` points of dimension prod(shape),
counting from p = 1, since at offset 0 point 0 is the centre (1/2, ..., 1/2).
"""

import functools
import math

import numpy as np

import npdisclab

#: scrambles the seed into the net's offset: 2**64 / golden ratio, rounded down (odd)
_OFFSET_MULT = 0x9E3779B97F4A7C15
_BITS = 128  # fixed-point bits of phi_d, so no libm call enters the A_j
_ONE = 1 << _BITS


@functools.cache
def multipliers(d: int) -> np.ndarray:
    """A_1..A_d of the d-dimensional net (d >= 1), read-only uint64."""
    # x = phi_d in units of 2**-_BITS: x**(d+1) - x - 1 is convex and rising
    # past 1, so Newton's steps from 1 + 1/d > phi_d fall onto the root
    big, x, step = _ONE**d, _ONE + _ONE // d, 1
    while step > 0:
        step = (x ** (d + 1) - (x + _ONE) * big) // ((d + 1) * x**d - big)
        x -= step
    psi = (1 << 2 * _BITS) // x  # 1 / phi_d
    a = np.array([(psi**j >> _BITS * j - 65) + 1 >> 1 | 1 for j in range(1, d + 1)], np.uint64)
    a.flags.writeable = False
    return a


class KroneckerNet:
    """The net offset by ``seed``, an integer read mod 2**64 (the CLI takes 0..2**64-1)."""

    def __init__(self, seed: int):
        self._offset = seed * _OFFSET_MULT % 2**64
        self._position = 1  # of the next point drawn

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """The next points as doubles in [low, high), allocated as an array of
        ``size``: ``low + (high - low) * ((w >> 11) * 2**-53)`` of each word w."""
        out = np.empty(size)
        flat = out.reshape(out.shape[0], math.prod(out.shape[1:]))
        a = multipliers(flat.shape[1])
        start = np.uint64((self._offset + self._position) % 2**64)
        self._position += flat.shape[0]
        for rows in npdisclab.row_blocks(*flat.shape):
            p = np.arange(rows.start, rows.stop, dtype=np.uint64) + start
            w = np.multiply.outer(p, a) + np.uint64(2**63)
            flat[rows] = low + (high - low) * ((w >> np.uint64(11)) * 2.0**-53)
        return out
