import math

import numpy as np
import pytest

from npdisclab import geometry, kernels, pick
from npdisclab.geometry import BallPoint, PointTable, pseudo_dist_scalar, row_blocks
from npdisclab.pick import (
    CrossingObstruction,
    ExtractionExhaustedError,
    PickProblem,
    PickProblemError,
    crossing_determinant,
    extract_interpolating_subsequence,
    kernel_gram,
    pick_matrix,
    psd_check,
)

def gaussian_points(n):
    return [BallPoint.radial(math.exp(-float(k * k))) for k in range(1, n + 1)]


def quadratic_points(n):
    return [BallPoint.radial(1.0 / k**2) for k in range(2, n + 2)]


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
        with pytest.raises(PickProblemError):
            PickProblem([0.5, 0.5], [0.0, 0.1], kernels.hardy(1))

    def test_rejects_large_targets(self):
        with pytest.raises(PickProblemError):
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
        with pytest.raises(PickProblemError, match=f"nodes {pair[0]} and {pair[1]} coincide"):
            PickProblem(nodes, np.zeros(len(nodes)), kernels.hardy(1))

    def test_first_pair_across_row_blocks(self, monkeypatch):
        # one row per block: the blocks still report the lexicographic first
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 1)
        with pytest.raises(PickProblemError, match="nodes 0 and 3 coincide"):
            PickProblem([0.3, 0.6, 0.6, 0.3], np.zeros(4), kernels.hardy(1))
        monkeypatch.undo()
        nodes = list(np.linspace(-0.9, 0.9, 300))
        nodes[290], nodes[299] = nodes[150], nodes[10]  # (10, 299) precedes (150, 290)
        assert len(list(row_blocks(300, 300))) > 1
        with pytest.raises(PickProblemError, match="nodes 10 and 299 coincide"):
            PickProblem(nodes, np.zeros(300), kernels.hardy(1))

    def test_equal_coordinates_with_different_gaps_are_distinct(self):
        p = BallPoint([0.5], gap=0.5)
        q = BallPoint([0.5], gap=0.5 + 2.0**-40)
        assert PickProblem([p, q, BallPoint([0.5])], [0.0, 0.1, 0.2], kernels.hardy(1)).size == 3
        with pytest.raises(PickProblemError, match="nodes 0 and 2 coincide"):
            PickProblem([p, q, BallPoint([0.5], gap=0.5)], [0.0, 0.1, 0.2], kernels.hardy(1))

    def test_different_dimensions_are_distinct(self):
        nodes = [BallPoint([0.5]), BallPoint([0.5, 0.0]), BallPoint([0.5, 0.0, 0.0])]
        assert PickProblem(nodes, [0.0, 0.1, 0.2], kernels.hardy(1)).size == 3
        with pytest.raises(PickProblemError, match="nodes 1 and 3 coincide"):
            PickProblem(nodes + [BallPoint([0.5, 0.0])], [0.0, 0.1, 0.2, 0.3], kernels.hardy(1))

    def test_signed_zero_coordinates_coincide(self):
        with pytest.raises(PickProblemError, match="nodes 0 and 1 coincide"):
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
        pts = [BallPoint.radial(g) for g in gaps] + [BallPoint([0.3j])]
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
            assert max(calls) <= geometry.BLOCK_ENTRIES
            kernel_gram(z, kernels.hardy(256))  # closed form on every entry
            kernel_gram(z, kernels.geometric(0.5, 256))
            assert len(calls) == blocks

    def test_extractor_stage_eigvalsh_calls(self, monkeypatch):
        # each delta estimate and each verified candidate draws one target
        # sample; a delta estimate spends one batched Cholesky call on each
        # chunk of the sample, a verification one eigvalsh call, and a chunk
        # is a whole dtype group wherever its (S, k, k) stack fits the bound
        log = []
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
        target_sample = pick._target_sample

        def sample(k, r, rng):
            out = target_sample(k, r, rng)
            log.append(("sample", k, [len(w) for w in out]))
            return out

        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: log.append(("eigvalsh", *a.shape[:2])) or eigvalsh(a))
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: log.append(("cholesky", *a.shape[:2])) or cholesky(a))
        monkeypatch.setattr(pick, "_target_sample", sample)
        for bound in (geometry.BLOCK_ENTRIES, 2**40):
            monkeypatch.setattr(geometry, "BLOCK_ENTRIES", bound)
            log.clear()
            res = extract_interpolating_subsequence(gaussian_points(14), 0.5, 12, seed=0)
            assert len(res.indices) == 12
            starts = [i for i, entry in enumerate(log) if entry[0] == "sample"]
            kinds = []
            for i, j in zip(starts, starts[1:] + [len(log)]):
                _, k, sizes = log[i]
                calls = log[i + 1:j]
                assert len({name for name, _, _ in calls}) == 1
                kinds.append(calls[0][0])
                assert len(calls) == sum(len(list(row_blocks(n, k * k))) for n in sizes)
                assert all(dim == k and (count * k * k <= bound or count == 1)
                           for _, count, dim in calls)
                assert sum(count for _, count, _ in calls) == sum(sizes)
                if bound > 2**30:
                    assert len(calls) == 2  # one call per dtype group
            stages = 11
            assert kinds.count("cholesky") == stages  # one sample per delta estimate
            assert kinds.count("eigvalsh") >= stages

    def test_lost_definiteness_in_delta_estimate(self, monkeypatch):
        # a Cholesky failure on the delta sample ends the run as exhausted
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(ExtractionExhaustedError,
                           match="stage 1 block lost definiteness during sampling"):
            extract_interpolating_subsequence(gaussian_points(14), 0.5, 4, seed=0)

    def test_one_minus_inner_calls(self, monkeypatch):
        # kernel_gram takes one call per row block of the triangle, so every
        # pair in one call below the block bound; an extractor stage takes
        # its selected block, candidate diagonal and candidate columns in
        # three calls and one block per verified candidate, whatever k is
        calls, samples = [], []
        owner, target_sample = PointTable.one_minus_inner, pick._target_sample
        monkeypatch.setattr(PointTable, "one_minus_inner",
                            lambda self, rows, cols: calls.append(1) or owner(self, rows, cols))
        monkeypatch.setattr(pick, "_target_sample",
                            lambda *a: samples.append(1) or target_sample(*a))
        for kernel in (kernels.hardy(1), kernels.hs(-0.5, 256)):
            calls.clear()
            kernel_gram(gaussian_points(20), kernel)
            assert len(calls) == 1
            calls.clear()
            kernel_gram(quadratic_points(200), kernel)
            assert len(calls) == len(list(row_blocks(200, 200))) == 3
        for k_max in (4, 12):
            calls.clear()
            samples.clear()
            extract_interpolating_subsequence(gaussian_points(14), 0.5, k_max, seed=0)
            stages = k_max - 1
            verified = len(samples) - stages  # one sample per delta estimate
            assert len(calls) <= 3 * stages + verified


class TestPsdCheck:
    def test_rejects_the_empty_matrix(self):
        # used to reach numpy's "zero-size array to reduction operation" text
        with pytest.raises(ValueError, match="matrix is empty"):
            psd_check(np.zeros((0, 0)))

    def test_row_blocks_see_every_pair(self, monkeypatch):
        # one row per block: an asymmetry or a non-finite entry in the last
        # row is still found, and an infinite pair raises no RuntimeWarning
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 1)
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
        from npdisclab.geometry import crossing_map, crossing_scalar

        curve = crossing_map(0.5)
        s = crossing_scalar(curve)
        x, big_c = 1e-3, 2.0
        z1, z2 = 1.0 - x, -1.0 + s * x
        nodes = [curve.eval(z1), curve.eval(z2)]
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
        res = extract_interpolating_subsequence(gaussian_points(5), 0.5, 1, seed=0)
        assert res.indices == [0]
        assert res.rows[0].rule == "initial"

    def test_gaussian_sequence_keeps_tail(self):
        res = extract_interpolating_subsequence(gaussian_points(12), 0.5, 10, seed=0)
        assert len(res.indices) == 10
        # once acceptance starts the sequence is kept consecutively
        diffs = np.diff(res.indices)
        assert np.all(diffs == 1)

    def test_quadratic_sequence_skips(self):
        pts = quadratic_points(100000)
        res = extract_interpolating_subsequence(pts, 0.5, 4, seed=0)
        assert len(res.indices) == 4
        assert max(np.diff(res.indices)) > 1  # strictly sparser than the input
        # the consecutive-index two-point block loses definiteness for large
        # n, forcing the skips: check it directly at the tail
        from npdisclab.pick import _log_kernel, _normalized_pick

        idx = np.array([90000, 90001])
        block = _log_kernel(PointTable(pts), idx[:, None], idx[None, :])
        b = _normalized_pick(block, np.array([0.5, -0.5]))
        assert np.linalg.eigvalsh(b).min() < 0.0

    def test_soundness_on_random_targets(self):
        res = extract_interpolating_subsequence(gaussian_points(12), 0.5, 10, seed=0)
        pts = gaussian_points(12)
        rng = np.random.default_rng(np.random.Philox(45))
        from npdisclab.pick import _log_kernel, _normalized_pick

        table, idx = PointTable(pts), np.array(res.indices)
        blocks = [_log_kernel(table, idx[:k, None], idx[None, :k]) for k in range(1, 11)]
        for _ in range(500):
            mag = 0.5 * np.sqrt(rng.uniform(size=10))
            w = mag * np.exp(2j * np.pi * rng.uniform(size=10))
            for k in range(1, 11):
                b = _normalized_pick(blocks[k - 1], w[:k])
                assert np.linalg.eigvalsh(b).min() > 1e-10

    def test_exhaustion_diagnostic(self):
        pts = quadratic_points(6)  # far too short to reach stage 6
        with pytest.raises(ExtractionExhaustedError):
            extract_interpolating_subsequence(pts, 0.5, 6, seed=0)

    def test_point_on_sphere_without_gap_is_an_error(self):
        # the gap of 1 - e^{-28^2} underflows, leaving the point [1.0]; the
        # log-kernel must refuse it rather than carry log(0) = -inf along
        pts = gaussian_points(3) + [BallPoint([1.0])]
        with np.errstate(all="raise"), pytest.raises(ValueError, match="rounds to 0"):
            extract_interpolating_subsequence(pts, 0.5, 3, seed=0)

    def test_rejects_the_empty_point_list(self):
        # used to raise IndexError on pts[-1]
        with pytest.raises(ValueError, match="point list is empty"):
            extract_interpolating_subsequence([], 0.5, 3, seed=0)

    def test_rejects_interior_bound_sequences(self):
        with pytest.raises(ValueError):
            extract_interpolating_subsequence([BallPoint([0.1]), BallPoint([0.2])], 0.5, 2, seed=0)


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
