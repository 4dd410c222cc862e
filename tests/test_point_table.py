"""The one owner of 1 - <z_i, z_j>, PointTable.one_minus_inner, against mpmath.

Each property is checked on derandomized, bounded hypothesis examples, so
every run sees the same pairs; the oracle is a 50-digit evaluation of the
same double-precision inputs.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import given, settings, strategies as st  # noqa: E402

from npdisclab.geometry import BallPoint, PointTable, one_minus_inner  # noqa: E402
from npdisclab.kernels import hardy, parse_family  # noqa: E402
from npdisclab.pick import kernel_gram  # noqa: E402

#: the hardy closed form read on ball points: 1/(1 - <x, y>)
DRURY_ARVESON = hardy(1)

ORACLE = settings(derandomize=True, max_examples=300, deadline=None)

#: about four units of roundoff of the leading term
BOUND = 4.5e-16

#: radial gaps spread over their exponent, from 1e-300 to 0.5
gaps = st.floats(min_value=-300.0, max_value=math.log10(0.5)).map(
    lambda e: min(10.0**e, 0.5)
)


def _in_ball(parts, radius=0.9):
    v = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
    norm = np.linalg.norm(v)
    return v * (radius / norm) if norm > radius else v


#: points of C^2 with |z| <= 0.9
c2_points = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4).map(_in_ball)


def _owner_entry(p: BallPoint, q: BallPoint) -> complex:
    """Entry (0, 1) of the owner's 2x2 block for the pair."""
    idx = np.arange(2)
    return PointTable([p, q]).one_minus_inner(idx[:, None], idx[None, :])[0, 1]


def _bits(value) -> bytes:
    return np.complex128(value).tobytes()


@ORACLE
@given(gaps, gaps)
def test_radial_pairs_are_relatively_exact(ga, gb):
    p, q = BallPoint.radial(ga), BallPoint.radial(gb)
    got = _owner_entry(p, q)
    with mpmath.workdps(50):
        # the points are 1 - g exactly, so 1 - z w = 1 - (1 - g_a)(1 - g_b);
        # expanded, it keeps all 50 digits for gaps down to 1e-300
        a, b = mpmath.mpf(ga), mpmath.mpf(gb)
        want = a + b - a * b
        assert got.imag == 0.0
        assert abs(mpmath.mpf(got.real) - want) <= BOUND * want
    assert _bits(one_minus_inner(p, q)) == _bits(got)


@ORACLE
@given(c2_points, c2_points)
def test_general_pairs_are_absolutely_exact(a, b):
    p, q = BallPoint(a), BallPoint(b)
    got = _owner_entry(p, q)
    with mpmath.workdps(50):
        want = 1 - mpmath.fsum(mpmath.mpc(x) * mpmath.conj(mpmath.mpc(y)) for x, y in zip(a, b))
        assert abs(mpmath.mpc(got) - want) <= BOUND
    assert _bits(one_minus_inner(p, q)) == _bits(got)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(gaps, min_size=1, max_size=6), st.lists(c2_points, max_size=6))
def test_drury_arveson_gram_is_one_over_the_owner(radial, general):
    pts = [BallPoint.radial(g) for g in radial] + [BallPoint(v) for v in general]
    gram = kernel_gram(pts, DRURY_ARVESON)
    rows, cols = np.triu_indices(len(pts))
    want = 1.0 / PointTable(pts).one_minus_inner(rows, cols)
    off = rows != cols
    assert np.array_equal(gram[rows[off], cols[off]], want[off])
    # the conjugate mirror writes the diagonal last
    assert np.array_equal(gram[rows[~off], cols[~off]], np.conj(want[~off]))


@pytest.mark.parametrize(
    "kernel", [pytest.param(DRURY_ARVESON, id="drury-arveson"), "hs:-0.5", "geom:0.5"]
)
def test_gram_diagonal_is_real_for_complex_nodes(kernel):
    rng = np.random.default_rng(np.random.Philox(17))
    nodes = [BallPoint(_in_ball(rng.uniform(-1.0, 1.0, 4))) for _ in range(20)]
    # z conj(z) leaves -1.47e-17j on 1 - |z|^2 for this point
    nodes.append(BallPoint([0.0, 0.9 * (1 + 1j) / math.sqrt(2.0)]))
    k = kernel if kernel == DRURY_ARVESON else parse_family(kernel, 64)
    gram = kernel_gram(nodes, k)
    assert np.any(gram.imag != 0.0)  # the nodes are complex
    assert np.all(np.diag(gram).imag == 0.0)
