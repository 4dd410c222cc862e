"""Row-blocked pairwise layers against the whole-array formulas they replace.

Each reference below builds the full n x n array in one call, as the layers
did before they reduced block by block; the blocked results must equal it
bit for bit, below the block bound (one block) and above it.
"""

import numpy as np
import pytest

from npdisclab import geometry, kernels
from npdisclab.geometry import BallPoint, PointTable, row_blocks
from npdisclab.pick import PickProblem, kernel_gram, pick_matrix
from npdisclab.sequences import garnett_targets, named_sequence, nearest_distances


def _bits(a) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view(np.uint64)


def whole_gram(nodes, kernel) -> np.ndarray:
    """Every upper-triangle pair in one owner call and one kernel call."""
    pts = [z if isinstance(z, BallPoint) else BallPoint([complex(z)]) for z in nodes]
    rows, cols = np.triu_indices(len(pts))
    omt = PointTable(pts).one_minus_inner(rows, cols)
    if not omt.imag.any():
        omt = omt.real
    upper = kernel.kernel_from_defect(omt)
    g = np.empty((len(pts), len(pts)), dtype=complex)
    g[rows, cols] = upper
    g[cols, rows] = np.conj(upper)
    return g


def whole_separation(s) -> tuple[np.ndarray, np.ndarray]:
    """Row minima and column log-sums of the whole distance matrix."""
    idx = np.arange(s.n)
    d = s.pair_dist(idx[:, None], idx[None, :])
    nearest = d.copy()
    np.fill_diagonal(nearest, np.inf)
    with np.errstate(divide="ignore"):
        log_d = np.log(d)
    np.fill_diagonal(log_d, 0.0)
    return nearest.min(axis=1), log_d.sum(axis=0)


def test_row_blocks_cover_rows_in_order():
    for n_rows, row_len in ((0, 5), (1, 1), (7, 3), (300, 300), (5, 2**20)):
        blocks = list(row_blocks(n_rows, row_len))
        covered = [i for rows in blocks for i in range(rows.start, rows.stop)]
        assert covered == list(range(n_rows))
        # at most the bound per block, and at least one row
        assert all(rows.stop - rows.start == 1
                   or (rows.stop - rows.start) * row_len <= geometry.BLOCK_ENTRIES
                   for rows in blocks)
    assert len(list(row_blocks(128, 128))) == 1  # 2^14 entries: one block


def _nodes(kind: str, size: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.Philox(size))
    z = 0.9 * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))
    if kind == "real":
        return z.real
    if kind == "first-complex":
        return np.concatenate([z[:1], z[1:].real])
    return z


@pytest.mark.parametrize("size", [60, 300])  # 3600 and 90000 pairs
@pytest.mark.parametrize("kind", ["real", "complex", "first-complex"])
@pytest.mark.parametrize("family", ["hardy", "hs:-0.5", "geom:0.5"])
def test_gram_equals_the_whole_array_formula(family, kind, size):
    # the real-path choice is made once for all pairs: with only the first
    # node complex, every block takes the complex path
    kernel = kernels.parse_family(family, 128)
    nodes = _nodes(kind, size)
    want = whole_gram(nodes, kernel)
    got = kernel_gram(nodes, kernel)
    assert np.array_equal(_bits(got), _bits(want))
    targets = 0.3 * nodes
    w = np.asarray(targets, dtype=complex)
    p = PickProblem(nodes, targets, kernel)
    assert np.array_equal(_bits(pick_matrix(p)), _bits((1.0 - np.outer(w, np.conj(w))) * want))


def test_gram_keeps_the_gap_algebra_across_blocks(monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 8)
    pts = [BallPoint.radial(g) for g in (1e-20, 3e-20, 0.5)] + [BallPoint([0.3j, 0.1])]
    for family in ("hardy", "geom:0.5"):
        kernel = kernels.parse_family(family, 64)
        assert np.array_equal(_bits(kernel_gram(pts, kernel)), _bits(whole_gram(pts, kernel)))


@pytest.mark.parametrize("tag, n", [
    ("vn_quadratic", 8), ("vn_quadratic", 20), ("wn_gaussian", 8), ("wn_gaussian", 20),
    ("xn_alternating", 8), ("xn_alternating", 20), ("dyadic_separated", 8),
    ("dyadic_separated", 14),
])
def test_separation_equals_the_whole_array_formula(tag, n, monkeypatch):
    s = named_sequence(tag, n)
    want_nearest, want_log = whole_separation(s)
    for bound in (geometry.BLOCK_ENTRIES, 64):  # one block for the radial tags, then many
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", bound)
        budgets = garnett_targets(s)
        assert np.array_equal(_bits(nearest_distances(s)), _bits(want_nearest))
        assert np.array_equal(_bits([b.nearest for b in budgets]), _bits(want_nearest))
        assert np.array_equal(_bits([b.delta.log_value for b in budgets]), _bits(want_log))


def test_distance_blocks_have_zero_diagonal(monkeypatch):
    # the sweep reads each row block once, in order, from the one owner;
    # d(v_i, v_i) = 0 exactly on every block's diagonal
    s = named_sequence("xn_alternating", 10)
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 32)
    owner, seen = type(s).pair_dist, []

    def spy(self, i, j):
        d = owner(self, i, j)
        seen.append((np.ravel(i).copy(), d.copy()))
        return d

    monkeypatch.setattr(type(s), "pair_dist", spy)
    garnett_targets(s)
    assert len(seen) == len(list(row_blocks(10, 10))) == 4
    assert np.array_equal(np.concatenate([rows for rows, _ in seen]), np.arange(10))
    for rows, d in seen:
        assert d.shape == (rows.size, 10)
        assert np.all(d[np.arange(rows.size), rows] == 0.0)
