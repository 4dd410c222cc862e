import math

import numpy as np
import pytest

from npdisclab import DomainError
from npdisclab.geometry import pseudo_dist_scalar, radial_log_gap_dist
from npdisclab.sequences import (
    DiscSequence,
    blaschke_sum,
    carleson_ratio,
    garnett_targets,
    is_separated,
    named_sequence,
)

from .oracles import dyadic_separated, separation_delta


class TestNamedSequences:
    def test_quadratic_first_points(self):
        s = named_sequence("vn_quadratic", 3)
        np.testing.assert_allclose(s.points, [0.75, 8.0 / 9.0, 15.0 / 16.0])

    def test_alternating_first_points(self):
        s = named_sequence("xn_alternating", 3)
        np.testing.assert_allclose(s.points, [0.75, -8.0 / 9.0, 15.0 / 16.0])

    def test_dyadic_generation_counts(self):
        s = named_sequence("dyadic_separated", 6)
        for m in range(1, 7):
            count = int(np.sum(s.gaps == 2.0**-m))
            assert count == math.floor(2.0 ** (m / 2.0)), f"generation {m}"

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 24, 30])
    def test_dyadic_matches_point_by_point_oracle(self, n):
        s, ref = named_sequence("dyadic_separated", n), dyadic_separated(n)
        for name in ("points", "gaps", "log_gaps", "angles"):
            got, want = getattr(s, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_gaussian_log_gaps_survive_underflow(self):
        s = named_sequence("wn_gaussian", 40)
        assert s.gaps[-1] == 0.0          # plain gap underflows
        assert s.log_gaps[-1] == -1600.0  # log form does not

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            named_sequence("mystery", 5)


class TestColumns:
    @pytest.mark.parametrize("columns", [
        {"gaps": [0.5], "angles": [0.0, 0.0]},
        {"gaps": [0.5, 0.4], "angles": [0.0]},
        {"gaps": [0.5, 0.4], "angles": [0.0, 0.0], "log_gaps": [-0.7]},
    ])
    def test_ragged_columns_are_refused(self, columns):
        with pytest.raises(DomainError, match="one entry per point"):
            DiscSequence([0.5, 0.6], "ragged", **columns)

    def test_nan_gap_is_refused(self):
        with pytest.raises(DomainError, match="open disc"):
            DiscSequence([0.5, 0.6], "nan", gaps=[math.nan, 0.4], angles=[0.0, 0.0])

    def test_table_holds_every_gap(self):
        # underflowed gaps stay 0.0, and radial points keep them in radial_gaps
        s = named_sequence("wn_gaussian", 30)
        assert np.array_equal(s.table.gaps, s.gaps)
        assert np.array_equal(s.table.radial_gaps, s.gaps)
        assert np.array_equal(s.table.coords[:, 0], s.points)


class TestBlaschkeSum:
    def test_quadratic_mass(self):
        # sum_{n>=2} 1/n^2 = pi^2/6 - 1, integral tail bounds the truncation
        n = 2000
        s = named_sequence("vn_quadratic", n)
        res = blaschke_sum(s)
        target = math.pi**2 / 6.0 - 1.0
        last = n + 1  # largest index present
        assert target - 1.0 / last <= res.total <= target
        assert res.converged

    def test_gaussian_mass_tiny(self):
        res = blaschke_sum(named_sequence("wn_gaussian", 30))
        assert res.total < 1.0
        assert res.converged
        # dominated by the first term e^-1
        assert res.total == pytest.approx(math.exp(-1.0), abs=0.03)

    def test_dyadic_mass_finite(self):
        res = blaschke_sum(named_sequence("dyadic_separated", 20))
        # sum_m floor(2^{m/2}) 2^-m <= sum 2^{-m/2} = 1/(sqrt(2)-1)
        assert res.total <= 1.0 / (math.sqrt(2.0) - 1.0)
        assert res.converged

    def test_non_blaschke_sequence_flagged(self):
        idx = np.arange(2, 4002, dtype=float)
        s = DiscSequence(1.0 - 1.0 / idx, "harmonic", gaps=1.0 / idx, angles=np.zeros(idx.size))
        assert not blaschke_sum(s).converged


class TestSeparationDelta:
    def test_two_point_hand_value(self):
        # |b_{-1/2}(1/2)| = |(-0.5-0.5)/(1+0.25)| = 0.8
        s = DiscSequence([0.5, -0.5], "pair", gaps=[0.5, 0.5], angles=[0.0, math.pi])
        assert separation_delta(s, 0).value == pytest.approx(0.8, abs=1e-15)
        assert separation_delta(s, 1).value == pytest.approx(0.8, abs=1e-15)

    def test_singleton_empty_product(self):
        s = DiscSequence([0.3], "one", gaps=[0.7], angles=[0.0])
        d = separation_delta(s, 0)
        assert d.value == 1.0
        assert not d.underflowed

    def test_quadratic_deltas_decay(self):
        deltas = []
        for n in (50, 100, 200, 400):
            s = named_sequence("vn_quadratic", n)
            deltas.append(separation_delta(s, n // 2).log_value)
        assert all(b < a for a, b in zip(deltas, deltas[1:]))

    def test_delta_bounded_by_nearest_neighbour(self):
        # each factor of the product is a distance <= 1, so delta_n cannot
        # exceed the distance from v_n to its nearest neighbour
        for tag in ("vn_quadratic", "wn_gaussian"):
            s = named_sequence(tag, 12)
            for n in range(s.n):
                nearest = min(s.pair_dist(i, n) for i in range(s.n) if i != n)
                assert separation_delta(s, n).value <= nearest + 1e-12


class TestIsSeparated:
    def test_gaussian_gap_near_one(self):
        ok, gap = is_separated(named_sequence("wn_gaussian", 20))
        assert ok
        assert gap > 0.9

    def test_quadratic_gap_shrinks(self):
        _, gap_small = is_separated(named_sequence("vn_quadratic", 20))
        ok, gap_big = is_separated(named_sequence("vn_quadratic", 1500))
        assert gap_big < gap_small
        assert not ok
        # d(v_n, v_{n+1}) = (2n+1)/(2n^2+2n) at the last consecutive pair
        n = 1500
        assert gap_big == pytest.approx((2 * n + 1) / (2 * n**2 + 2 * n), rel=1e-10)

    def test_dyadic_separated(self):
        ok, gap = is_separated(named_sequence("dyadic_separated", 12))
        assert ok
        assert gap > 1e-3


class TestCarleson:
    def test_dyadic_ratio_exceeds_p_plus_one(self):
        s = named_sequence("dyadic_separated", 20)
        for p in range(1, 11):
            assert carleson_ratio(s, p) >= p + 1

    def test_dyadic_ratio_exact_arithmetic(self):
        # every contribution is a dyadic rational: the bound is exact
        s = named_sequence("dyadic_separated", 20)
        total = 0.0
        for m in range(3, 7):
            total += 2.0**-m * min(math.floor(2.0 ** (m / 2.0)), 2 ** (m - 3))
        assert carleson_ratio(s, 3) == 2.0**3 * sum(
            2.0**-m * min(math.floor(2.0 ** (m / 2.0)), 2 ** (m - 3))
            for m in range(3, 21)
        )

    def test_empty_box(self):
        s = DiscSequence([0.5], "one", gaps=[0.5], angles=[0.0])
        assert carleson_ratio(s, 2) == 0.0

    def test_gaussian_ratios_bounded(self):
        s = named_sequence("wn_gaussian", 30)
        ratios = [carleson_ratio(s, p) for p in range(1, 13)]
        assert max(ratios) < 4.0


class TestGarnett:
    def test_unit_delta(self):
        s = DiscSequence([0.3], "one", gaps=[0.7], angles=[0.0])
        assert garnett_targets(s)[0].budget == 1.0

    def test_hand_value_at_inverse_e(self):
        # delta = 1/e: budget = e^-1 (1 + 1)^-2 = 1/(4e)
        budget = math.exp(-1.0) * (1.0 + 1.0) ** -2
        # d(0, 1/e) = 1/e is the single factor of both points' products
        got = garnett_targets(DiscSequence([0.0, 1.0 / math.e], "pair",
                                         gaps=[1.0, 1.0 - 1.0 / math.e], angles=[0.0, 0.0]))
        assert [t.budget for t in got] == pytest.approx([budget, budget], rel=1e-12)

    def test_quadratic_budgets_vanish(self):
        budgets = []
        for n in (50, 100, 200):
            s = named_sequence("vn_quadratic", n)
            budgets.append(garnett_targets(s)[n // 2].budget)
        assert all(b < a for a, b in zip(budgets, budgets[1:]))
        assert budgets[-1] < 1e-3


class TestArraySeparation:
    @pytest.mark.parametrize("tag, n", [("vn_quadratic", 400), ("wn_gaussian", 60),
                                        ("xn_alternating", 200), ("dyadic_separated", 12)])
    def test_matches_scalar_reference(self, tag, n):
        s = named_sequence(tag, n)
        budgets = garnett_targets(s)
        gaps = np.array([b.nearest for b in budgets])
        for i, b in enumerate(budgets):
            ref = separation_delta(s, i)
            err = abs(b.delta.log_value - ref.log_value)
            assert err <= 1e-12 * max(1.0, abs(ref.log_value)), (i, b.delta, ref)
            assert b.delta.underflowed == ref.underflowed
            nearest = min(s.pair_dist(j, i) for j in range(s.n) if j != i)
            assert gaps[i] == pytest.approx(nearest, rel=1e-12, abs=0.0), i
        assert is_separated(s)[1] == gaps.min()

    def test_log_delta_matches_mpmath_past_gap_underflow(self):
        mpmath = pytest.importorskip("mpmath")
        s = named_sequence("wn_gaussian", 60)
        assert np.all(s.gaps[27:] == 0.0)  # only the log-gaps carry these points
        budgets = garnett_targets(s)
        with mpmath.workdps(50):
            g = [mpmath.exp(mpmath.mpf(float(lg))) for lg in s.log_gaps]
            for n, b in enumerate(budgets):
                exact = float(mpmath.fsum(
                    mpmath.log(abs(g[i] - g[n]) / (g[i] + g[n] - g[i] * g[n]))
                    for i in range(s.n) if i != n
                ))
                err = abs(b.delta.log_value - exact)
                assert err <= 1e-12 * max(1.0, abs(exact)), (n, b.delta.log_value, exact)


class TestDistanceMatrix:
    def test_separation_builds_it_once(self, monkeypatch, capsys):
        # one broadcast owner call per row block, so one below the block
        # bound, and no scalar pairs
        from npdisclab import sequences
        from npdisclab.cli import main
        from npdisclab import row_blocks

        owner, calls = sequences.radial_log_gap_dist, []
        monkeypatch.setattr(sequences, "radial_log_gap_dist",
                            lambda a, b: calls.append((np.ndim(a), np.ndim(b))) or owner(a, b))
        for n, blocks in ((15, 1), (400, 10)):
            calls.clear()
            assert main(["separation", "tag=vn_quadratic", f"n={n}", "--reproducible"]) == 0
            assert calls == [(2, 2)] * blocks == [(2, 2)] * len(list(row_blocks(n, n)))

    def test_quadratic_nearest_distances_match_mpmath(self):
        # the log-gap form against the exact gap formula at 40 digits; along
        # the radius each point's nearest neighbour is adjacent to it
        mpmath = pytest.importorskip("mpmath")
        s = named_sequence("vn_quadratic", 400)
        gaps = [b.nearest for b in garnett_targets(s)]
        with mpmath.workdps(40):
            g = [mpmath.mpf(float(x)) for x in s.gaps]
            d = [abs(a - b) / (a + b - a * b) for a, b in zip(g, g[1:])]
            exact = [d[0]] + [min(a, b) for a, b in zip(d, d[1:])] + [d[-1]]
            err = max(abs(float((mpmath.mpf(float(x)) - e) / e)) for x, e in zip(gaps, exact))
        assert err <= 1e-12, err


    def test_alternating_radial_pairs_match_mpmath(self):
        # the sweep's mixed block, positive rows against every column, takes
        # the log-gap form on its pairs of two positive points
        mpmath = pytest.importorskip("mpmath")
        s = named_sequence("xn_alternating", 2000)
        pos = np.flatnonzero(s.points.real > 0.0)[-101:]
        got = s.pair_dist(pos[:-1, None], np.arange(s.n)[None, :])[np.arange(100), pos[1:]]
        with mpmath.workdps(40):
            g = [mpmath.mpf(float(x)) for x in s.gaps[pos]]
            exact = [abs(a - b) / (a + b - a * b) for a, b in zip(g, g[1:])]
            err = max(abs(float((mpmath.mpf(float(x)) - e) / e)) for x, e in zip(got, exact))
        assert err <= 1e-11, err

    def test_mixed_broadcasts_match_scalar_calls(self):
        # radial gaps near 1e-12, where the coordinate form is off by ~1e-5
        # relative, among points off the ray: each broadcast shape takes
        # every pair's own rule, as one scalar call does
        gaps = np.array([1e-12, 2e-12, 0.5, 3e-12, 0.25, 4e-12, 0.1])
        angles = np.array([0.0, 0.0, math.pi, 0.0, 1.0, 0.0, 2.0])
        s = DiscSequence((1.0 - gaps) * np.exp(1j * angles), "mixed", gaps=gaps, angles=angles)
        idx = np.arange(s.n)
        want = np.array([[s.pair_dist(a, b) for b in idx] for a in idx])
        radial = np.outer(angles == 0.0, angles == 0.0)
        lg, z = np.log(gaps), s.points
        rule = np.where(radial, radial_log_gap_dist(lg[:, None], lg[None, :]),
                        pseudo_dist_scalar(z[:, None], z[None, :]))
        np.testing.assert_allclose(want, rule, rtol=1e-15)
        assert np.abs(rule - pseudo_dist_scalar(z[:, None], z[None, :]))[radial].max() > 1e-6
        rows, cols = np.meshgrid(idx, idx[::-1], indexing="ij")
        for i, j in [(idx[:, None], idx[None, :]),
                     (np.array([0, 0, 2, 3])[:, None], idx[None, ::-1]),
                     (idx, idx[::-1]), (np.array([0, 1]), np.array([3, 5])),
                     (0, idx), (idx, 3), (rows, cols), (rows.T, cols)]:
            np.testing.assert_allclose(s.pair_dist(i, j), want[i, j], rtol=1e-13)


class TestAlternatingTargets:
    def test_no_contraction_compatible_map_reaches_alternating_targets(self):
        # any analytic disc self-map contracts the metric, so consecutive
        # images can never stay separated once d(v_n, v_{n+1}) -> 0
        s = named_sequence("vn_quadratic", 200)
        sep = pseudo_dist_scalar(0.25, -0.25)  # target gap for C = 2
        candidates = [
            lambda z: z,
            lambda z: (z - 0.3) / (1.0 - 0.3 * z),
            lambda z: z**3,
            lambda z: 0.5 * (z + z**2),
        ]
        for g in candidates:
            n = s.n - 2
            d_src = s.pair_dist(n, n + 1)
            d_img = pseudo_dist_scalar(g(s.points[n]), g(s.points[n + 1]))
            assert d_img <= d_src + 1e-12
            assert d_img < sep
