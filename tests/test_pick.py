import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import npdisclab
from npdisclab import DomainError, NotCertifiedError, kernels, pick, row_blocks
from npdisclab.geometry import PointTable, pseudo_dist_scalar
from npdisclab.pick import (
    CrossingObstruction,
    PickProblem,
    crossing_determinant,
    extract_interpolating_subsequence,
    kernel_gram,
    pick_matrix,
    psd_check,
)
from npdisclab.rounding import PSD_TOL, rayleigh_bound
from npdisclab.sequences import named_sequence

from .oracles import _normalized_pick, radial_points, stacked


def gaussian_points(n):
    return radial_points([math.exp(-float(k * k)) for k in range(1, n + 1)])


def quadratic_points(n):
    return radial_points([1.0 / k**2 for k in range(2, n + 2)])


def certified_margin(gram, log_block, coord_rel, r):
    """lambda_min(G) - r^2 lambda_max(G) less the rounding bound, as the extractor prints it."""
    eig = np.linalg.eigvalsh(gram)
    return float(eig[0] - r * r * eig[-1]) - rayleigh_bound(gram, log_block, coord_rel)


class TestPickMatrix:
    def test_single_node_szego(self):
        p = PickProblem([0.5], [0.0], kernels.hardy(64))
        m = pick_matrix(p)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-13)

    def test_two_node_zero_targets(self):
        p = PickProblem([0.0, 0.5], [0.0, 0.0], kernels.hardy(64))
        np.testing.assert_allclose(
            pick_matrix(p), [[1.0, 1.0], [1.0, 4.0 / 3.0]], atol=1e-13
        )

    def test_schwarz_extremal_degenerates(self):
        # targets realized by h(z) = z: the matrix drops rank
        p = PickProblem([0.0, 0.5], [0.0, 0.5], kernels.hardy(64))
        m = pick_matrix(p)
        np.testing.assert_allclose(m, [[1.0, 1.0], [1.0, 1.0]], atol=1e-13)
        det = m[0, 0] * m[1, 1] - abs(m[0, 1]) ** 2
        assert det == pytest.approx(0.0, abs=1e-13)

    def test_rejects_coincident_nodes(self):
        with pytest.raises(DomainError, match="nodes 0 and 1 coincide"):
            PickProblem([0.5, 0.5], [0.0, 0.1], kernels.hardy(1))

    def test_rejects_large_targets(self):
        with pytest.raises(DomainError, match="all targets must lie in the open disc"):
            PickProblem([0.0, 0.5], [0.0, 1.0], kernels.hardy(1))

    def test_gram_is_pick_matrix_with_zero_targets(self):
        rng = np.random.default_rng(np.random.Philox(41))
        nodes = 0.8 * rng.uniform(0.1, 1.0, 8) * np.exp(2j * np.pi * rng.uniform(size=8))
        p = PickProblem(nodes, np.zeros(8), kernels.hs(-0.5, 512))
        np.testing.assert_allclose(pick_matrix(p), kernel_gram(nodes, kernels.hs(-0.5, 512)))
        verdict = psd_check(pick_matrix(p))
        assert verdict.verdict != "indefinite"


class TestCoincidence:
    @pytest.mark.parametrize("nodes, pair", [
        ([0.1, 0.5, 0.3, 0.5], (1, 3)),     # duplicate at non-adjacent positions
        ([0.3, 0.6, 0.6, 0.3], (0, 3)),     # two duplicates: lexicographic first
        ([0.2, 0.7, 0.2, 0.7, 0.7], (0, 2)),
    ])
    def test_reports_first_coinciding_pair(self, nodes, pair):
        with pytest.raises(DomainError, match=f"nodes {pair[0]} and {pair[1]} coincide"):
            PickProblem(nodes, np.zeros(len(nodes)), kernels.hardy(1))

    def test_first_pair_across_row_blocks(self, monkeypatch):
        # one row per block: the blocks still report the lexicographic first
        monkeypatch.setattr(npdisclab, "BLOCK_ENTRIES", 1)
        with pytest.raises(DomainError, match="nodes 0 and 3 coincide"):
            PickProblem([0.3, 0.6, 0.6, 0.3], np.zeros(4), kernels.hardy(1))
        monkeypatch.undo()
        nodes = list(np.linspace(-0.9, 0.9, 300))
        nodes[290], nodes[299] = nodes[150], nodes[10]  # (10, 299) precedes (150, 290)
        assert len(list(row_blocks(300, 300))) > 1
        with pytest.raises(DomainError, match="nodes 10 and 299 coincide"):
            PickProblem(nodes, np.zeros(300), kernels.hardy(1))

    def test_equal_coordinates_with_different_gaps_are_distinct(self):
        gaps = [0.5, 0.5 + 2.0**-40, math.nan]
        nodes = PointTable([0.5] * 3, gaps)
        assert PickProblem(nodes, [0.0, 0.1, 0.2], kernels.hardy(1)).size == 3
        with pytest.raises(DomainError, match="nodes 0 and 2 coincide"):
            PickProblem(PointTable([0.5] * 3, gaps[:2] + [0.5]), [0.0, 0.1, 0.2], kernels.hardy(1))

    def test_zero_padded_dimensions_coincide(self):
        # [0.5] and [0.5, 0] are one ball point once the table pads them
        nodes = stacked(PointTable([0.5]), PointTable([[0.5, 0.0]]))
        with pytest.raises(DomainError, match="nodes 0 and 1 coincide"):
            PickProblem(nodes, [0.0, 0.1], kernels.hardy(1))
        nodes = PointTable([[0.5, 0.0, 0.0], [0.5, 0.0, 0.1], [0.5, 0.1, 0.0], [0.5, 0.0, 0.1]])
        with pytest.raises(DomainError, match="nodes 1 and 3 coincide"):
            PickProblem(nodes, [0.0, 0.1, 0.2, 0.3], kernels.hardy(1))

    def test_signed_zero_coordinates_coincide(self):
        with pytest.raises(DomainError, match="nodes 0 and 1 coincide"):
            PickProblem([complex(0.5, 0.0), complex(0.5, -0.0)], [0.0, 0.1], kernels.hardy(1))


class TestGramOracle:
    """kernel_gram against 50-digit evaluations of the same kernels."""

    @staticmethod
    def nodes():
        rng = np.random.default_rng(np.random.Philox(46))
        return 0.9 * np.sqrt(rng.uniform(size=30)) * np.exp(2j * np.pi * rng.uniform(size=30))

    def check(self, handle, make_exact):
        mpmath = pytest.importorskip("mpmath")
        z = self.nodes()
        gram = kernel_gram(z, handle)
        scale = np.abs(gram).max()
        with mpmath.workdps(50):
            exact = make_exact(mpmath)
            for i in range(z.size):
                for j in range(i, z.size):
                    t = mpmath.mpc(z[i]) * mpmath.conj(mpmath.mpc(z[j]))
                    want = complex(exact(t))
                    assert abs(gram[i, j] - want) <= 1e-13 * scale, (i, j)
                    assert abs(gram[j, i] - np.conj(want)) <= 1e-13 * scale, (j, i)
        assert np.array_equal(np.tril(gram, -1), np.triu(gram, 1).conj().T)

    def test_hs_truncated_series(self):
        n = 256

        def make_exact(mp):
            # Horner on the exact weights (m + 1)^-1/2, highest order first
            weights = [mp.power(m + 1, mp.mpf(-0.5)) for m in range(n, -1, -1)]
            return lambda t: mp.polyval(weights, t)

        self.check(kernels.hs(-0.5, n), make_exact)

    def test_hardy_closed_form(self):
        self.check(kernels.hardy(64), lambda mp: lambda t: 1 / (1 - t))

    def test_geometric_closed_form(self):
        self.check(kernels.geometric(0.5, 64), lambda mp: lambda t: (1 - t / 2) / (1 - t))


    def test_radial_pairs_keep_the_gap_algebra(self):
        # 1 - z w rounds to 0 for these radial points; only the exact gaps
        # g_i + g_j - g_i g_j keep the kernel finite
        gaps = [1e-20, 3e-20]
        pts = stacked(radial_points(gaps), PointTable([0.3j]))
        for kernel in (kernels.hardy(1), kernels.hardy(64)):
            gram = kernel_gram(pts, kernel)
            for i, gi in enumerate(gaps):
                for j, gj in enumerate(gaps):
                    assert gram[i, j] == pytest.approx(1.0 / (gi + gj - gi * gj), rel=1e-15)
            assert gram[0, 2] == pytest.approx(1.0 / (1.0 + 0.3j * (1.0 - gaps[0])), rel=1e-15)


class TestCallCounts:
    """Whole-array evaluation: no per-pair or per-sample calls."""

    def test_gram_evaluates_the_kernel_once(self, monkeypatch):
        # one kernel_value call per row block of the Gram triangle, so
        # exactly one below the block bound; the closed forms make none
        calls = []
        series = kernels.KernelHandle.kernel_value
        monkeypatch.setattr(kernels.KernelHandle, "kernel_value",
                            lambda self, t: calls.append(np.size(t)) or series(self, t))
        rng = np.random.default_rng(np.random.Philox(47))
        for size, blocks in ((50, 1), (300, 6)):  # 2500 and 90000 pairs
            calls.clear()
            z = 0.9 * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))
            kernel_gram(z, kernels.hs(-0.5, 256))
            assert len(calls) == len(list(row_blocks(size, size))) == blocks
            assert max(calls) <= npdisclab.BLOCK_ENTRIES
            kernel_gram(z, kernels.hardy(256))  # closed form on every entry
            kernel_gram(z, kernels.geometric(0.5, 256))
            assert len(calls) == blocks

    def test_extractor_stage_eigvalsh_calls(self, monkeypatch):
        # each stage makes one real (k-1) x (k-1) Cholesky call for its
        # delta, and then each candidate tried takes one k x k eigvalsh call
        # on its Gram block
        log = []
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
        normalized_gram = pick._normalized_gram
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: log.append(("eigvalsh", a.shape)) or eigvalsh(a))
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: log.append(("cholesky", a.shape, a.dtype)) or cholesky(a))
        monkeypatch.setattr(pick, "_normalized_gram",
                            lambda table, idx: log.append(("tried", idx.size))
                            or normalized_gram(table, idx))
        res = extract_interpolating_subsequence(gaussian_points(14), 0.5, 12)
        assert len(res.indices) == 12
        starts = [i for i, entry in enumerate(log) if entry[0] == "cholesky"]
        assert len(starts) == 11 and starts[0] == 0  # one Cholesky call per stage
        for stage, (i, j) in enumerate(zip(starts, starts[1:] + [len(log)]), start=2):
            assert log[i] == ("cholesky", (stage - 1, stage - 1), np.float64)
            # certification: (tried, eigvalsh) pairs on stage x stage blocks
            certify = log[i + 1:j]
            assert certify and certify == [("tried", stage), ("eigvalsh", (stage, stage))] * (
                len(certify) // 2)

    def test_lost_definiteness_in_delta_estimate(self, monkeypatch):
        # a worst case that is not positive definite gives delta = 0, so no
        # candidate passes dominance and the run ends as exhausted
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(NotCertifiedError,
                           match="point list exhausted at stage 2: no candidate after index 0 "
                                 "passed dominance"):
            extract_interpolating_subsequence(gaussian_points(14), 0.5, 4)

    def test_one_minus_inner_calls(self, monkeypatch):
        # kernel_gram takes one call per row block of the triangle, so every
        # pair in one call below the block bound; an extractor stage takes
        # its selected block, candidate diagonal and candidate columns in
        # three calls and one block per candidate tried, whatever k is
        calls, tried = [], []
        owner, eigvalsh = PointTable.one_minus_inner, np.linalg.eigvalsh
        monkeypatch.setattr(PointTable, "one_minus_inner",
                            lambda self, rows, cols: calls.append(1) or owner(self, rows, cols))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: tried.append(1) or eigvalsh(a))
        for kernel in (kernels.hardy(1), kernels.hs(-0.5, 256)):
            calls.clear()
            kernel_gram(gaussian_points(20), kernel)
            assert len(calls) == 1
            calls.clear()
            kernel_gram(quadratic_points(200), kernel)
            assert len(calls) == len(list(row_blocks(200, 200))) == 3
        for k_max in (4, 12):
            calls.clear()
            tried.clear()
            extract_interpolating_subsequence(gaussian_points(14), 0.5, k_max)
            stages = k_max - 1
            assert len(tried) >= stages  # one eigvalsh call per candidate tried
            assert len(calls) <= 3 * stages + len(tried)


class TestPsdCheck:
    def test_rejects_the_empty_matrix(self):
        # used to reach numpy's "zero-size array to reduction operation" text
        with pytest.raises(ValueError, match="matrix is empty"):
            psd_check(np.zeros((0, 0)))

    def test_row_blocks_see_every_pair(self, monkeypatch):
        # one row per block: an asymmetry or a non-finite entry in the last
        # row is still found, and an infinite pair raises no RuntimeWarning
        monkeypatch.setattr(npdisclab, "BLOCK_ENTRIES", 1)
        m = np.eye(6, dtype=complex)
        m[5, 0] = 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            psd_check(m)
        m[5, 0], m[0, 5] = np.inf, np.inf
        with pytest.raises(ValueError, match="non-finite"):
            psd_check(m)
        m[0, 5], m[5, 0], m[5, 5] = 0.0, 0.0, np.nan
        with pytest.raises(ValueError, match="non-finite"):
            psd_check(m)
        m[5, 5] = 3.0
        v = psd_check(m)
        assert (v.min_eigenvalue, v.matrix_scale) == (1.0, 3.0)

    def test_identity(self):
        v = psd_check(np.eye(3))
        assert v.verdict == "positive-definite"
        assert v.min_eigenvalue == pytest.approx(1.0)

    def test_rank_one_boundary(self):
        v = psd_check(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert v.verdict == "positive-semidefinite"
        assert v.min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_indefinite(self):
        v = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert v.verdict == "indefinite"

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a nan entry must not read as the semidefinite band
        with pytest.raises(ValueError, match="non-finite"):
            psd_check(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_large_matrix_verdicts(self):
        rng = np.random.default_rng(np.random.Philox(42))
        b = rng.normal(size=(250, 250))
        spd = b @ b.T + 250 * np.eye(250)
        assert psd_check(spd).verdict == "positive-definite"
        indef = spd.copy()
        indef[0, 0] = -spd[0, 0]
        assert psd_check(indef).verdict == "indefinite"

    @pytest.mark.parametrize("lam_min", [-1e-6, -1e-12, 1e-12, 1e-6])
    @pytest.mark.parametrize("n", [201, 500])
    def test_planted_spectrum(self, n, lam_min):
        # Q diag(lam) Q^H with a seeded random unitary Q: the reported
        # minimum is the planted one at every size, and so is the verdict
        rng = np.random.default_rng(np.random.Philox(n))
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        lam = np.concatenate([[lam_min], rng.uniform(0.5, 2.0, n - 1)])
        m = (q * lam) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        v = psd_check(m)
        expected = {-1e-6: "indefinite", 1e-6: "positive-definite"}.get(
            lam_min, "positive-semidefinite"
        )
        assert v.verdict == expected
        assert abs(v.min_eigenvalue - lam_min) <= 1e-12 * v.matrix_scale

    def test_crossing_pinch_matrix_indefinite(self):
        from npdisclab.geometry import CrossingCurve, crossing_scalar

        curve = CrossingCurve(0.5)
        s = crossing_scalar(curve)
        x, big_c = 1e-3, 2.0
        z1, z2 = 1.0 - x, -1.0 + s * x
        nodes = PointTable([curve.coords(z1), curve.coords(z2)])
        p = PickProblem(nodes, [z1 / big_c, z2 / big_c], kernels.hardy(1))
        assert psd_check(pick_matrix(p)).verdict == "indefinite"


class TestSolvable:
    def test_single_node_always_solvable(self):
        p = PickProblem([0.3 + 0.1j], [0.7], kernels.hardy(64))
        assert psd_check(pick_matrix(p)).verdict != "indefinite"

    def test_two_node_matches_distance_comparison(self):
        # classical two-point criterion: solvable iff d(w1, w2) <= d(z1, z2)
        rng = np.random.default_rng(np.random.Philox(43))
        k = kernels.hardy(64)
        checked = 0
        for _ in range(200):
            z = 0.9 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
            w = 0.9 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
            dz = pseudo_dist_scalar(z[0], z[1])
            dw = pseudo_dist_scalar(w[0], w[1])
            if dz < 1e-3 or abs(dw - dz) < 1e-6:
                continue  # skip near-degenerate and tolerance-edge cases
            p = PickProblem(z, w, k)
            assert (psd_check(pick_matrix(p)).verdict != "indefinite") == (dw <= dz)
            checked += 1
        assert checked >= 100

    def test_min_eigenvalue_monotone_in_target_scale(self):
        rng = np.random.default_rng(np.random.Philox(44))
        z = 0.8 * (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)) / math.sqrt(2)
        u = (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)) / math.sqrt(2)
        eigs = []
        for t in (1.0, 0.75, 0.5, 0.25, 0.0):
            m = pick_matrix(PickProblem(z, t * u, kernels.hardy(64)))
            eigs.append(np.linalg.eigvalsh(m).min())
        assert all(b >= a - 1e-12 for a, b in zip(eigs, eigs[1:]))


class TestExtractor:
    def test_kmax_one_returns_first_index(self):
        res = extract_interpolating_subsequence(gaussian_points(5), 0.5, 1)
        assert res.indices == [0]
        assert res.rows[0].rule == "initial"

    def test_gaussian_sequence_keeps_tail(self):
        res = extract_interpolating_subsequence(gaussian_points(12), 0.5, 10)
        assert len(res.indices) == 10
        # once acceptance starts the sequence is kept consecutively
        diffs = np.diff(res.indices)
        assert np.all(diffs == 1)

    def test_quadratic_sequence_skips(self):
        pts = quadratic_points(100000)
        res = extract_interpolating_subsequence(pts, 0.5, 4)
        assert len(res.indices) == 4
        assert max(np.diff(res.indices)) > 1  # strictly sparser than the input
        # the consecutive-index two-point block loses definiteness for large
        # n, forcing the skips: check it directly at the tail
        from npdisclab.pick import _log_kernel

        idx = np.array([90000, 90001])
        block = _log_kernel(pts, idx[:, None], idx[None, :])
        b = _normalized_pick(block, np.array([0.5, -0.5]))
        assert np.linalg.eigvalsh(b).min() < 0.0
        # so the worst case over the polydisc, this corner, has no
        # Cholesky factor and the extractor's delta for the pair is 0
        assert pick._log_delta(block, 0.5) == -math.inf

    def test_soundness_on_random_targets(self):
        res = extract_interpolating_subsequence(gaussian_points(12), 0.5, 10)
        rng = np.random.default_rng(np.random.Philox(45))
        from npdisclab.pick import _log_kernel

        table, idx = gaussian_points(12), np.array(res.indices)
        blocks = [_log_kernel(table, idx[:k, None], idx[None, :k]) for k in range(1, 11)]
        for _ in range(500):
            mag = 0.5 * np.sqrt(rng.uniform(size=10))
            w = mag * np.exp(2j * np.pi * rng.uniform(size=10))
            for k in range(1, 11):
                b = _normalized_pick(blocks[k - 1], w[:k])
                assert np.linalg.eigvalsh(b).min() > 1e-10

    def test_exhaustion_diagnostic(self):
        pts = quadratic_points(6)  # far too short to reach stage 6
        with pytest.raises(NotCertifiedError, match="point list exhausted at stage"):
            extract_interpolating_subsequence(pts, 0.5, 6)

    def test_point_on_sphere_without_gap_is_an_error(self):
        # the gap of 1 - e^{-28^2} underflows, leaving the point [1.0]; the
        # log-kernel must refuse it rather than carry log(0) = -inf along
        pts = stacked(gaussian_points(3), PointTable([1.0]))
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match="rounds to 0: a point without an exact gap lies on the sphere"):
            extract_interpolating_subsequence(pts, 0.5, 3)

    def test_underflowed_gap_names_its_point(self):
        # 1 - e^{-28^2} keeps an exact gap, but the gap underflows to 0.0
        table = named_sequence("wn_gaussian", 30).table
        assert table.gaps[27] == 0.0 and table.gaps[26] > 0.0
        with pytest.raises(
                ValueError, match=r"rounds to 0: the gap 1 - \|z\| of the point at index 27 "
                                  r"underflowed to 0\.0"):
            extract_interpolating_subsequence(table, 0.5, 10)

    def test_rejects_the_empty_point_list(self):
        # used to raise IndexError on pts[-1]
        with pytest.raises(ValueError, match="point list is empty"):
            extract_interpolating_subsequence([], 0.5, 3)

    def test_rejects_interior_bound_sequences(self):
        with pytest.raises(ValueError):
            extract_interpolating_subsequence([0.1, 0.2], 0.5, 2)


def _depth(table, r):
    """Points the extractor selects at kmax = 50, read from its exit line if it stops."""
    try:
        return len(extract_interpolating_subsequence(table, r, 50).indices)
    except NotCertifiedError as exc:
        return int(re.search(r"stage (\d+)", str(exc)).group(1)) - 1


class TestLogDelta:
    """The extractor's delta: the log determinant of the entrywise worst case
    of the previous stage's Pick block over the closed r-polydisc."""

    @pytest.mark.parametrize("tag, n, k_max", [("wn_gaussian", 22, 18),
                                               ("dyadic_separated", 20, 5)])
    def test_every_stage_against_mpmath(self, tag, n, k_max):
        # 30-digit log det of the worst case (1 - r^2) K_ii, (1 + r^2) |K_ij|
        # from the exact gaps and angles, |1 - <z_i, z_j>| = |g_i + g_j -
        # g_i g_j - (1 - g_i)(1 - g_j)(e^{i(t_i - t_j)} - 1)|, scaled to unit
        # diagonal first so that mpmath's LU sees no e^400 dynamic range.
        # Bound: 1e-11 relative to max(1, |log delta|); radial stages agree to
        # 3e-16, and the dyadic stages holding points off the real axis to
        # 5e-13, from the owner's rounding of coordinate pairs
        mpmath = pytest.importorskip("mpmath")
        seq, r = named_sequence(tag, n), 0.5
        res = extract_interpolating_subsequence(seq.table, r, k_max)
        with mpmath.workdps(30):
            g = [mpmath.mpf(float(seq.gaps[i])) for i in res.indices]
            t = [mpmath.mpf(float(seq.angles[i])) for i in res.indices]
            rsq = mpmath.mpf(r) ** 2
            for k in range(1, k_max + 1):
                mod = [[abs(g[i] + g[j] - g[i] * g[j]
                            - (1 - g[i]) * (1 - g[j]) * mpmath.expm1(1j * (t[i] - t[j])))
                        for j in range(k)] for i in range(k)]
                scaled = mpmath.matrix([[1 if i == j else (1 + rsq) / (1 - rsq)
                                         * mpmath.sqrt(mod[i][i] * mod[j][j]) / mod[i][j]
                                         for j in range(k)] for i in range(k)])
                exact = mpmath.log(mpmath.det(scaled)) + sum(
                    mpmath.log((1 - rsq) / mod[i][i]) for i in range(k))
                idx = np.array(res.indices[:k])
                got = pick._log_delta(pick._log_kernel(seq.table, idx[:, None], idx[None, :]), r)
                assert math.isfinite(got) and mpmath.isfinite(exact)
                assert abs(got - exact) <= 1e-11 * max(1, abs(exact)), (k, got, exact)

    def test_two_points_take_the_opposite_sign_corner(self):
        # with two points the worst case is the Pick block at the corner
        # (r, -r), the smaller of the two real sign classes of the old
        # corner sample
        for tag, n in (("wn_gaussian", 8), ("vn_quadratic", 200), ("xn_alternating", 40),
                       ("dyadic_separated", 12)):
            table = named_sequence(tag, n).table
            for r in (0.1, 0.5, 0.9):
                idx = np.array(extract_interpolating_subsequence(table, r, 2).indices)
                block = pick._log_kernel(table, idx[:, None], idx[None, :])
                corners = []
                for w in (np.array([r, r]), np.array([r, -r])):
                    chol = np.linalg.cholesky(_normalized_pick(block, w))
                    corners.append(2.0 * np.sum(np.log(np.diag(chol))) + np.sum(np.log1p(-w * w))
                                   + np.trace(block))
                assert pick._log_delta(block, r) == pytest.approx(min(corners), rel=1e-14)

    @pytest.mark.parametrize("tag, n, r, depth", [
        ("dyadic_separated", 16, 0.5, 4),
        ("dyadic_separated", 20, 0.3, 7),
        ("dyadic_separated", 20, 0.5, 5),
        ("dyadic_separated", 20, 0.7, 4),
        ("xn_alternating", 100, 0.7, 4),
    ])
    def test_depth_floor(self, tag, n, r, depth):
        # the depth the extractor reaches at kmax = 50 is at least this:
        # accepting the first certified candidate alone goes shallower on
        # the dyadic_separated cases, and the worst-case delta goes one
        # stage deeper than a 512-corner sample did on the xn_alternating
        # case (4, where the sample reached 3)
        assert _depth(named_sequence(tag, n).table, r) >= depth


class TestRayleighCertificate:
    """The extractor's certificate: lambda_min(G) - r^2 lambda_max(G), less its
    rounding bound, bounds every normalized Pick matrix over the r-polydisc."""

    @staticmethod
    @st.composite
    def cases(draw):
        k = draw(st.integers(1, 7))
        r = draw(st.floats(0.05, 0.95))
        radial = draw(st.booleans())
        if radial:
            # exact gaps, some far below machine epsilon
            logs = draw(st.lists(st.floats(0.1, 300.0), min_size=k, max_size=k))
            pts = radial_points([math.exp(-t) for t in logs])
        else:
            polar = draw(st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi)),
                                  min_size=k, max_size=k))
            pts = PointTable([rho * complex(math.cos(a), math.sin(a)) for rho, a in polar])
        # each target on the torus |w_i| = r (a corner), or inside, real or not
        mags = draw(st.lists(st.one_of(st.just(r), st.floats(0.0, r)), min_size=k, max_size=k))
        angles = draw(st.lists(st.one_of(st.sampled_from([0.0, math.pi]),
                                         st.floats(0.0, 2 * math.pi)), min_size=k, max_size=k))
        w = np.array(mags) * np.exp(1j * np.array(angles))
        return pts, r, radial, w

    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_bound_holds_over_the_polydisc(self, case):
        table, r, radial, w = case
        idx = np.arange(len(table))
        cert = certified_margin(*pick._normalized_gram(table, idx), r)
        omt = table.one_minus_inner(idx[:, None], idx[None, :])
        # the block the Pick matrix is built from carries the phase
        block = pick._log_kernel(table, idx[:, None], idx[None, :]) if radial else -np.log(omt)
        lam = np.linalg.eigvalsh(_normalized_pick(block, w))[0]
        # P >= cert E^{-1} with E = diag(1 - |w_i|^2) <= I
        assert lam >= min(cert, cert / (1.0 - np.abs(w) ** 2).min())

    def test_printed_margin_against_mpmath(self):
        # 50-digit margins of the wn_gaussian n=22 selection, whose gaps
        # reach e^-400, from the exact gap algebra g_i + g_j - g_i g_j
        mpmath = pytest.importorskip("mpmath")
        seq = named_sequence("wn_gaussian", 22)
        res = extract_interpolating_subsequence(seq.table, 0.5, 18)
        with mpmath.workdps(50):
            for k in (2, 10, 18):
                g = [mpmath.mpf(float(seq.gaps[i])) for i in res.indices[:k]]
                omt = [[g[i] + g[j] - g[i] * g[j] for j in range(k)] for i in range(k)]
                gram = mpmath.matrix([[mpmath.sqrt(omt[i][i] * omt[j][j]) / omt[i][j]
                                       for j in range(k)] for i in range(k)])
                eig = sorted(mpmath.eigsy(gram, eigvals_only=True))
                exact = eig[0] - mpmath.mpf(0.5) ** 2 * eig[-1]
                printed = res.rows[k - 1].min_eigenvalue
                assert PSD_TOL < printed <= exact
                assert float(exact - printed) <= 1e-12

    @pytest.mark.parametrize("stage", [4, 5])
    def test_bound_covers_the_owners_coordinate_rounding(self, stage):
        # from stage 4 the dyadic_separated n=20 selection holds a point off
        # the real axis, whose pairs the owner forms from coordinates with an
        # absolute error up to c eps, c = d + 3 = 4; moving those entries by
        # c eps moves the margin by less than the bound, and by more than
        # the bound without its coordinate term
        table = named_sequence("dyadic_separated", 20).table
        res = extract_interpolating_subsequence(table, 0.5, 5)
        idx = np.array(res.indices[:stage])
        gram, log_block, coord_rel = pick._normalized_gram(table, idx)
        gaps = table.radial_gaps[idx]
        coord = np.isnan(gaps[:, None] + gaps[None, :])
        omt = table.one_minus_inner(idx[:, None], idx[None, :]).astype(complex)

        def margin(w):
            eig = np.linalg.eigvalsh(pick._correlation(-np.log(w)))
            return eig[0] - 0.25 * eig[-1]

        rng = np.random.default_rng(np.random.Philox(38))
        moved = 0.0
        for _ in range(200):
            shift = np.triu(np.exp(2j * np.pi * rng.uniform(size=omt.shape)), 1)
            shift += np.conj(shift).T + np.diag(rng.choice([-1.0, 1.0], stage))
            moved = max(moved, abs(margin(omt + 4 * np.finfo(float).eps * coord * shift)
                                   - margin(omt)))
        assert moved <= rayleigh_bound(gram, log_block, coord_rel)
        assert moved > rayleigh_bound(gram, log_block, np.zeros_like(coord_rel))

    def test_no_bound_past_a_quarter_of_relative_data_error(self):
        # delta > 1/4 leaves the doubled first-order term unproved: a point
        # given by coordinates within 4 eps of the sphere is never certified
        z = 1.0 - 4 * np.finfo(float).eps
        table = PointTable([0.5j, z * np.exp(0.1j)])
        parts = pick._normalized_gram(table, np.arange(2))
        assert parts[2].max() > 0.25 and rayleigh_bound(*parts) == math.inf

    def test_complex_nodes_print_the_phase_correct_margin(self):
        # dyadic_separated points off the real axis: from stage 4 the Gram
        # block has a phase, and the entrywise modulus would print another
        # margin, further off than the rounding bound
        table, phased = named_sequence("dyadic_separated", 20).table, []
        res = extract_interpolating_subsequence(table, 0.5, 5)
        for row in res.rows[1:]:
            idx = np.array(res.indices[:row.k])
            gram, log_block, coord_rel = pick._normalized_gram(table, idx)
            assert row.min_eigenvalue == certified_margin(gram, log_block, coord_rel, 0.5)
            if np.iscomplexobj(gram):
                modulus = certified_margin(pick._correlation(log_block), log_block, coord_rel, 0.5)
                bound = rayleigh_bound(gram, log_block, coord_rel)
                assert abs(modulus - row.min_eigenvalue) > bound
                phased.append(row.k)
        assert phased == [4, 5]


class TestCrossingDeterminant:
    def test_obstruction_grid(self):
        for r in (0.3, 0.5, 0.7):
            for big_c in (1.5, 2.0, 5.0, 20.0):
                res = crossing_determinant(r, big_c, 1e-4)
                assert res.det < 0.0, (r, big_c)
                assert res.lhs > res.rhs, (r, big_c)

    def test_kernel_ratio_tends_to_one(self):
        vals = [crossing_determinant(0.5, 2.0, x).kernel_ratio for x in (1e-2, 1e-3, 1e-4)]
        assert abs(vals[-1] - 1.0) < 0.05
        assert abs(vals[0] - 1.0) > abs(vals[1] - 1.0) > abs(vals[2] - 1.0)

    def test_scalar_parameter_reported(self):
        res = crossing_determinant(0.5, 2.0, 1e-3)
        assert isinstance(res, CrossingObstruction)
        assert res.scalar_s == pytest.approx(3.0, abs=1e-9)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            crossing_determinant(0.5, 2.0, 0.5)
        with pytest.raises(ValueError):
            crossing_determinant(0.5, 0.9, 1e-3)
