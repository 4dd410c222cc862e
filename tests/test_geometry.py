import math

import numpy as np
import pytest

from npdisclab import geometry as geo
from npdisclab.geometry import (
    BallPoint,
    BoundaryDivergenceError,
    BoundaryPointError,
    EmbeddedDisc,
    crossing_map,
    crossing_scalar,
    distortion_profile,
    hardy_embedding,
    hs_embedding,
    image_distance,
    mobius_auto,
    pseudo_dist,
    pseudo_dist_scalar,
    radial_gap_dist,
    radial_log_gap_dist,
    tangential_ratio,
    transversality_pairing,
)
from npdisclab.tangential import ConformalChain, assemble_embedding


def random_ball_point(rng, dim, rmax=0.9):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return BallPoint(v * rmax * rng.uniform() ** (1.0 / (2 * dim)))


class TestDistance:
    def test_distance_to_origin_is_norm(self):
        rng = np.random.default_rng(np.random.Philox(31))
        for _ in range(50):
            p = random_ball_point(rng, 3)
            assert pseudo_dist(p, BallPoint(np.zeros(3))) == pytest.approx(p.norm, abs=1e-14)

    def test_symmetry_and_self_distance(self):
        rng = np.random.default_rng(np.random.Philox(32))
        for _ in range(100):
            p = random_ball_point(rng, 2)
            q = random_ball_point(rng, 2)
            assert pseudo_dist(p, q) == pytest.approx(pseudo_dist(q, p), abs=1e-14)
            assert pseudo_dist(p, p) == 0.0

    def test_rejects_boundary(self):
        with pytest.raises(BoundaryPointError):
            pseudo_dist(BallPoint([1.0]), BallPoint([0.5]))

    def test_quadratic_sequence_closed_form(self):
        # d(1 - 1/n^2, 1 - 1/(n+1)^2) = (2n+1)/(2n^2+2n)
        for n in range(2, 101):
            d = radial_gap_dist(1.0 / n**2, 1.0 / (n + 1) ** 2)
            expected = (2.0 * n + 1.0) / (2.0 * n**2 + 2.0 * n)
            assert d == pytest.approx(expected, abs=1e-14)

    def test_gaussian_sequence_closed_form(self):
        # d(1-e^{-n^2}, 1-e^{-(n+1)^2}) =
        #   (1 - e^{-2n-1}) / (1 + e^{-2n-1} - e^{-n^2-2n-1})
        for n in range(2, 101):
            d = radial_log_gap_dist(-float(n**2), -float((n + 1) ** 2))
            e = math.exp(-(2.0 * n + 1.0))
            tiny = math.exp(-(n**2 + 2.0 * n + 1.0)) if n**2 + 2 * n + 1 < 745 else 0.0
            expected = (1.0 - e) / (1.0 + e - tiny)
            assert d == pytest.approx(expected, abs=1e-14)

    def test_gap_path_matches_plain_formula_at_moderate_gaps(self):
        for ga, gb in ((0.25, 0.0625), (0.5, 0.1), (0.3, 0.3)):
            plain = pseudo_dist_scalar(1.0 - ga, 1.0 - gb)
            assert radial_gap_dist(ga, gb) == pytest.approx(plain, abs=1e-14)
            assert radial_log_gap_dist(math.log(ga), math.log(gb)) == pytest.approx(
                plain, abs=1e-13
            )

    def test_radial_ball_points_use_exact_gaps(self):
        a = BallPoint.radial(math.exp(-49.0))   # coordinate rounds to 1.0
        b = BallPoint.radial(math.exp(-64.0))
        assert a.coords[0] == 1.0
        assert a.is_interior
        d = pseudo_dist(a, b)
        assert d == pytest.approx(radial_gap_dist(math.exp(-49.0), math.exp(-64.0)), abs=1e-14)


class TestMobius:
    def test_fixed_values(self):
        rng = np.random.default_rng(np.random.Philox(33))
        for _ in range(30):
            w = random_ball_point(rng, 3)
            z = random_ball_point(rng, 3)
            assert np.allclose(mobius_auto(w, w).coords, 0.0, atol=1e-13)
            assert np.allclose(mobius_auto(w, BallPoint(np.zeros(3))).coords, w.coords, atol=1e-14)
            assert np.allclose(mobius_auto(BallPoint(np.zeros(3)), z).coords, -z.coords)

    def test_norm_reproduces_distance(self):
        rng = np.random.default_rng(np.random.Philox(34))
        worst = 0.0
        for _ in range(1000):
            w = random_ball_point(rng, 3)
            z = random_ball_point(rng, 3)
            worst = max(worst, abs(mobius_auto(w, z).norm - pseudo_dist(z, w)))
        assert worst < 1e-12

    def test_invariance_of_distance(self):
        rng = np.random.default_rng(np.random.Philox(35))
        for dim in (2, 4):
            worst = 0.0
            for _ in range(500):
                w = random_ball_point(rng, dim)
                z = random_ball_point(rng, dim)
                y = random_ball_point(rng, dim)
                lhs = pseudo_dist(mobius_auto(w, z), mobius_auto(w, y))
                worst = max(worst, abs(lhs - pseudo_dist(z, y)))
            assert worst < 1e-10, f"dim={dim}"


class TestEmbeddedDisc:
    def test_eval_at_zero(self):
        e = hs_embedding(-0.5, 128)
        point, deriv = e.eval(0.0), e.deriv(0.0)
        assert np.allclose(point.coords, 0.0)
        assert deriv[0] == e.amplitudes[0]
        assert np.allclose(deriv[1:], 0.0)

    def test_hardy_embedding_is_identity(self):
        e = hardy_embedding()
        point = e.eval(0.5)
        assert point.coords[0] == 0.5
        assert point.norm == pytest.approx(0.5)

    def test_compact_embedding_boundary_norm(self):
        from npdisclab import kernels

        k = kernels.hs(-2.0, 2048)
        e = EmbeddedDisc.from_kernel_handle(k)
        assert e.regime == "compact"
        point = e.eval(1.0)
        # the exact generating value includes the full tail; the truncated
        # moduli mass sits just below it
        mass = k.moduli.values.sum()
        assert mass <= point.norm**2 <= mass + 0.01
        assert point.norm < 1.0

    def test_eval_outside_closed_disc_refused(self):
        e = hardy_embedding()
        with pytest.raises(ValueError, match="outside the closed disc"):
            e.eval(1.5)

    def test_open_embedding_boundary_derivative_refused(self):
        e = hs_embedding(-0.5, 256)
        assert e.regime == "open"
        with pytest.raises(BoundaryDivergenceError):
            e.deriv(1.0)
        # off the real axis z conj(z) rounds off 1, where A_s refuses the circle;
        # the divergent derivative is reported first
        with pytest.raises(BoundaryDivergenceError):
            transversality_pairing(e, 1.0)

    def test_amplitude_mass_validated(self):
        with pytest.raises(ValueError):
            EmbeddedDisc([1.0, 0.5], "open", boundary_c1=False)
        with pytest.raises(ValueError):
            EmbeddedDisc([0.0, 1.0], "open", boundary_c1=False)


class TestCrossing:
    def test_pairing_values(self):
        # hand-differentiated: <f'(1), f(1)> = 2/(1-r), <f'(-1), f(-1)> = -2/(1+r)
        for r in (0.3, 0.5, 0.7):
            c = crossing_map(r)
            pos = complex(np.dot(c.deriv(1.0), np.conj(c.eval(1.0).coords))).real
            neg = complex(np.dot(c.deriv(-1.0), np.conj(c.eval(-1.0).coords))).real
            assert pos == pytest.approx(2.0 / (1.0 - r), abs=1e-10)
            assert neg == pytest.approx(-2.0 / (1.0 + r), abs=1e-10)

    def test_transversality_pairing_on_circle(self):
        c = crossing_map(0.5)
        assert transversality_pairing(c, 0.0) == pytest.approx(4.0, abs=1e-10)
        # at z = -1 the pairing <f(z), f'(z) z> is +2/(1+r), still transversal
        assert transversality_pairing(c, math.pi) == pytest.approx(4.0 / 3.0, abs=1e-10)
        for t in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            assert transversality_pairing(c, t) > 0.0

    def test_scalar_parameter(self):
        for r in (0.3, 0.5, 0.7):
            assert crossing_scalar(crossing_map(r)) == pytest.approx(
                (1.0 + r) / (1.0 - r), abs=1e-10
            )

    def test_hardy_boundary_pairing_is_one(self):
        curve = hardy_embedding()
        for t in (0.0, 1.0, 2.5):
            assert transversality_pairing(curve, t) == pytest.approx(1.0, abs=1e-12)

    def test_finite_difference_matches_closed_form(self):
        c = crossing_map(0.4)
        z = 0.3 + 0.2j
        # the base-class central differences against the closed-form override
        numeric = geo.GeneralCurve.deriv(c, z)
        np.testing.assert_allclose(numeric, c.deriv(z), rtol=1e-8)


class TestTangentialRatios:
    def test_hardy_ratio1_is_one(self):
        curve = hardy_embedding()
        for x in (0.3, 0.9, 0.99):
            r1, r2 = tangential_ratio(curve, x)
            assert r1 == pytest.approx(1.0, abs=1e-12)
            assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_hs_ratio1_decay_exponent(self):
        curve = hs_embedding(-0.5, 512)
        xs = [1.0 - 2.0**-j for j in range(4, 9)]
        vals = [tangential_ratio(curve, x)[0] for x in xs]
        slope = np.polyfit(np.log([1 - x for x in xs]), np.log(vals), 1)[0]
        assert slope == pytest.approx(0.25, abs=0.08)

    def test_hs_ratio2_grows_unbounded(self):
        curve = hs_embedding(-0.5, 512)
        r2 = [tangential_ratio(curve, 1.0 - 2.0**-j)[1] for j in range(3, 8)]
        assert all(b > a for a, b in zip(r2, r2[1:]))


class TestDistortion:
    def test_identity_profile(self):
        ident = hardy_embedding()
        rng = np.random.default_rng(np.random.Philox(36))
        raw = rng.uniform(-1, 1, (20, 2)) + 1j * rng.uniform(-1, 1, (20, 2))
        pairs = [(z1, z2) for z1, z2 in 0.8 * raw / math.sqrt(2.0)]
        prof = distortion_profile(ident, pairs)
        assert prof.ratio_min == pytest.approx(1.0, abs=1e-12)
        assert prof.ratio_max == pytest.approx(1.0, abs=1e-12)

    def test_crossing_pinch(self):
        c = crossing_map(0.5)
        s = crossing_scalar(c)
        pairs = [(1.0 - x, -1.0 + s * x) for x in (1e-2, 1e-3, 1e-4)]
        prof = distortion_profile(c, pairs)
        src = [row[0] for row in prof.rows]
        img = [row[1] for row in prof.rows]
        assert all(v > 0.99 for v in src)
        assert img[0] > img[1] > img[2]
        assert img[2] < 0.2

    def test_schwarz_pick_contraction(self):
        rng = np.random.default_rng(np.random.Philox(37))
        curves = [
            crossing_map(0.5),
            hs_embedding(-0.5, 512),
            hs_embedding(-2.0, 512),
        ]
        for curve in curves:
            for _ in range(300):
                lam = 0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
                mu = 0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
                if abs(lam - mu) < 1e-9:
                    continue
                prof = distortion_profile(curve, [(lam, mu)])
                assert prof.ratio_max <= 1.0 + 1e-10, curve.label

    def test_first_outside_point_is_named(self):
        pairs = [(0.5, 0.25j), (0.3, 1.5 + 0j), (2.0, 0.1)]
        with pytest.raises(ValueError) as exc:
            distortion_profile(crossing_map(0.5), pairs)
        assert str(exc.value) == "source point (1.5+0j) lies outside the open unit disc"


CURVES = {
    "crossing": lambda: crossing_map(0.5),
    "hs": lambda: hs_embedding(-0.5, 256),
    "hardy": hardy_embedding,
    "tangential": lambda: assemble_embedding(ConformalChain(0.75), 256),
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_array_calls_match_scalar_calls(name):
    curve = CURVES[name]()
    rng = np.random.default_rng(np.random.Philox(40))

    def disc(shape):
        return 0.9 * np.sqrt(rng.uniform(size=shape)) * np.exp(2j * np.pi * rng.uniform(size=shape))

    lam, mu = disc((3, 1)), disc((1, 4))
    calls = {
        "inner": curve.inner,
        "image_distance": lambda a, b: image_distance(curve, a, b),
        "pseudo_dist_scalar": pseudo_dist_scalar,
    }
    for label, f in calls.items():
        got = f(lam, mu)
        assert got.shape == (3, 4), label
        for i, j in np.ndindex(3, 4):
            want = f(complex(lam[i, 0]), complex(mu[0, j]))
            assert isinstance(want, complex if label == "inner" else float), label
            assert abs(got[i, j] - want) <= 1e-13 * abs(want), (label, i, j)
    xs = np.array([0.3, 0.6, 0.9])
    for got, k in zip(tangential_ratio(curve, xs), (0, 1)):
        assert got.shape == xs.shape
        want = [tangential_ratio(curve, float(x))[k] for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-13)


class TestScalarSchwarzPickBound:
    def test_boundary_pairing_lower_bound(self):
        # for g(z) = <f(z), f(1)>: (1-|g(z)|)/(1-|z|) >= (1-|g(0)|)/(1+|g(0)|)
        rng = np.random.default_rng(np.random.Philox(38))
        curves = [crossing_map(0.5), hs_embedding(-0.5, 512)]
        for curve in curves:
            g0 = abs(curve.inner(0.0, 1.0))
            bound = (1.0 - g0) / (1.0 + g0)
            for _ in range(1000):
                z = 0.97 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
                gz = abs(curve.inner(z, 1.0))
                assert (1.0 - gz) / (1.0 - abs(z)) >= bound - 1e-10
