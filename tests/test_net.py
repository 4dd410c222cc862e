"""The Kronecker net against its closed form, word by word.

Coordinate j of point p of the d-dimensional net offset by ``seed`` is the
word ((seed * 0x9E3779B97F4A7C15 + p) * A_j + 2**63) mod 2**64, with A_j =
round(2**64 * phi_d**-j) made odd.  The closed form below is computed with
Python ints, the multipliers against an mpmath root of x**(d+1) = x + 1.
Draw scripts mix uniform draws of varied ranges, sizes and dimensions; one
position counter starts at 1 and advances by each draw's point count.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import npdisclab  # noqa: E402
from npdisclab.net import KroneckerNet, multipliers  # noqa: E402

EXAMPLES = settings(derandomize=True, max_examples=60, deadline=None)
OFFSET_MULT = 0x9E3779B97F4A7C15

seeds = st.sampled_from([0, 7, 1999, 2**32 - 1, 2**64 - 1]) | st.integers(0, 2**64 - 1)
shapes = st.integers(0, 150).map(lambda n: (n,)) | st.tuples(st.integers(0, 40), st.integers(1, 9))
scripts = st.lists(st.tuples(st.sampled_from(["u01", "u11"]), shapes), max_size=8)


def _word(seed, p, a):
    return ((seed * OFFSET_MULT + p) * a + 2**63) % 2**64


def _closed_form(seed, script):
    """Each draw of the script as Python floats, from positions 1, 2, ..."""
    p = 1
    for kind, shape in script:
        count, d = shape[0], math.prod(shape[1:])
        a = [int(x) for x in multipliers(d)]
        words = [[_word(seed, p + i, aj) for aj in a] for i in range(count)]
        p += count
        low = 0.0 if kind == "u01" else -1.0
        values = [[low + (1.0 - low) * ((w >> 11) * 2**-53) for w in row] for row in words]
        yield np.array(values, dtype=float).reshape(shape)


def _drawn(seed, script):
    net = KroneckerNet(seed)
    for kind, shape in script:
        yield net.uniform(0.0 if kind == "u01" else -1.0, 1.0, shape)


def _assert_closed_form(seed, script):
    for got, want in zip(_drawn(seed, script), _closed_form(seed, script), strict=True):
        assert got.dtype == np.float64
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pinned_multipliers():
    assert [int(a) for a in multipliers(1)] == [0x9E3779B97F4A7C17]
    assert [int(a) for a in multipliers(2)] == [0xC13FA9A902A6328F, 0x91E10DA5C79E7B1D]
    assert [int(a) for a in multipliers(4)] == [0xDB4F0B9175AE2165, 0xBBE0563303A4615F,
                                                0xA0F2EC75A1FE1577, 0x89E182857D9ED689]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 17, 36, 100])
def test_multipliers_are_the_rounded_powers_of_the_root(d):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(256):
        phi = mpmath.findroot(lambda x: x ** (d + 1) - x - 1, (1, 2), solver="anderson")
        want = [int(mpmath.nint(mpmath.ldexp(phi**-j, 64))) | 1 for j in range(1, d + 1)]
    assert multipliers(d).dtype == np.uint64
    assert [int(a) for a in multipliers(d)] == want


@EXAMPLES
@given(seeds, scripts)
def test_draws_are_the_closed_form(seed, script):
    _assert_closed_form(seed, script)


def test_largest_seed_wraps_the_offset():
    # the offset (2**64 - 1) * OFFSET_MULT mod 2**64 is 2**64 - OFFSET_MULT
    _assert_closed_form(2**64 - 1, [("u01", (3, 4)), ("u11", (5,)), ("u11", (2, 2, 3))])
    # the seed whose offset is 2**64 - 1 puts point 1 at offset + 1 = 0: the centre
    seed = -pow(OFFSET_MULT, -1, 2**64) % 2**64
    assert np.all(KroneckerNet(seed).uniform(0.0, 1.0, (1, 6)) == 0.5)
    # a seed is read mod 2**64
    for a, b in ((-1, 2**64 - 1), (2**64 + 7, 7)):
        assert np.array_equal(KroneckerNet(a).uniform(0.0, 1.0, (9, 3)),
                              KroneckerNet(b).uniform(0.0, 1.0, (9, 3)))


def test_value_ranges():
    net = KroneckerNet(7)
    u = net.uniform(-1.0, 1.0, (2000, 4))
    assert np.all((-1.0 <= u) & (u < 1.0))


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_one_dimensional_spread(seed):
    # each coordinate of 4096 points of the 4-dimensional net, sorted, stays
    # within 4e-3 of the uniform grid i/N
    n = 4096
    u = np.sort(KroneckerNet(seed).uniform(0.0, 1.0, (n, 4)), axis=0)
    assert np.abs(u - np.arange(n)[:, None] / n).max() <= 4e-3


def test_words_form_in_bounded_row_blocks(monkeypatch):
    script = [("u11", (300, 2, 5)), ("u01", (77, 9)), ("u01", (1000,))]
    want = list(_drawn(7, script))
    blocks = []
    original = npdisclab.row_blocks

    def spy(n_rows, row_len):
        for rows in original(n_rows, row_len):
            blocks.append((rows.stop - rows.start, row_len))
            yield rows

    monkeypatch.setattr(npdisclab, "row_blocks", spy)
    monkeypatch.setattr(npdisclab, "BLOCK_ENTRIES", 32)
    for got, w in zip(_drawn(7, script), want, strict=True):
        assert np.array_equal(got.view(np.uint64), w.view(np.uint64))
    assert len(blocks) > len(script)
    assert all(n == 1 or n * row_len <= 32 for n, row_len in blocks)


def test_output_is_allocated_before_any_word(monkeypatch):
    def refuse(n_rows, row_len):
        raise AssertionError("a word was formed")

    monkeypatch.setattr(npdisclab, "row_blocks", refuse)
    with pytest.raises(MemoryError):
        KroneckerNet(0).uniform(-1.0, 1.0, (2**40, 4))
