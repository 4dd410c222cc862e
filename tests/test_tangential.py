import math

import numpy as np
import pytest

from npdisclab.tangential import (
    ChainDomainError,
    ConformalChain,
    assemble_embedding,
    harmonic_conjugate,
    tangency_report,
)


@pytest.fixture(scope="module")
def chain():
    return ConformalChain(0.75)


@pytest.fixture(scope="module")
def embedding(chain):
    return assemble_embedding(chain, 4096)


@pytest.fixture(scope="module")
def fine_embedding(chain):
    # the tangency sweep to j = 14 needs the grid to resolve 2^-14
    return assemble_embedding(chain, 2**18)


class TestChain:
    def test_half_disc_fixed_values(self, chain):
        assert chain.eval(1.0, "half_disc") == pytest.approx(0.0, abs=1e-12)
        assert chain.eval(-1j, "half_disc") == pytest.approx(-1.0, abs=1e-12)

    def test_pole_guard(self, chain):
        with pytest.raises(ChainDomainError):
            chain.eval(1j, "half_disc")

    def test_half_disc_derivative_magnitude(self, chain):
        # |g'(1)| = 1/4, estimated from inside along the real axis
        h = 1e-7
        d = (chain.eval(1.0, "half_disc") - chain.eval(1.0 - h, "half_disc")) / h
        assert abs(d) == pytest.approx(0.25, abs=1e-5)

    def test_image_in_half_disc(self, chain):
        rng = np.random.default_rng(np.random.Philox(51))
        z = 0.99 * np.sqrt(rng.uniform(size=500)) * np.exp(2j * np.pi * rng.uniform(size=500))
        g = chain.eval(z, "half_disc")
        assert np.all(np.abs(g) < 1.0 + 1e-12)
        assert np.all(g.imag > -1e-12)

    def test_full_map_boundary_singularity(self, chain):
        assert chain.eval(1.0, "full") == 1.0
        assert chain.eval(1.0, "clipped") == 1.0


class TestBoundarySampling:
    def test_samples_nonpositive(self, chain):
        u1 = assemble_embedding(chain, 1024).u1
        assert u1.shape == (1024,)
        assert np.all(u1 <= 1e-12)
        assert np.all(np.isfinite(u1))

    def test_integral_stable_under_doubling(self, chain):
        vals = []
        for m in (2048, 4096):
            u1 = assemble_embedding(chain, m).u1
            vals.append(np.mean(np.abs(u1)) * 2.0 * math.pi)
        assert abs(vals[1] - vals[0]) < 0.02 * abs(vals[0])

    def test_smooth_away_from_singularity(self, chain):
        # local interpolation from the coarse grid reproduces the fine grid
        # away from the singular angle: the self-convergence oracle for
        # smoothness (h^4 scaling holds only where u_1 is smooth)
        from scipy.interpolate import CubicSpline

        coarse = assemble_embedding(chain, 2048)
        fine = assemble_embedding(chain, 4096)
        knots = np.concatenate((coarse.angles, [2.0 * math.pi]))
        vals = np.concatenate((coarse.u1, [coarse.u1[0]]))
        spline = CubicSpline(knots, vals, bc_type="periodic")
        t = fine.angles
        away = np.minimum(t, 2.0 * math.pi - t) > 0.5
        assert np.max(np.abs(spline(t[away]) - fine.u1[away])) < 1e-6

    def test_grid_validation(self, chain):
        with pytest.raises(ValueError):
            assemble_embedding(chain, 100)
        with pytest.raises(ValueError):
            assemble_embedding(chain, 3000)

    def test_one_chain_evaluation_and_one_spectrum(self, chain, monkeypatch):
        m = 4096
        sizes, rffts = [], []
        chain_eval, rfft = ConformalChain.eval, np.fft.rfft

        def eval_spy(self, z, stage="clipped"):
            sizes.append(np.size(z))
            return chain_eval(self, z, stage)

        def rfft_spy(*args, **kwargs):
            rffts.append(np.size(args[0]))
            return rfft(*args, **kwargs)

        monkeypatch.setattr(ConformalChain, "eval", eval_spy)
        monkeypatch.setattr(np.fft, "rfft", rfft_spy)
        assemble_embedding(chain, m)
        assert sizes.count(m) == 1
        assert rffts == [m]

class TestHarmonicConjugate:
    def test_cosine_to_sine(self):
        m = 512
        t = 2.0 * math.pi * np.arange(m) / m
        out = harmonic_conjugate(np.cos(t))
        np.testing.assert_allclose(out, np.sin(t), atol=1e-13)

    def test_constant_to_zero(self):
        out = harmonic_conjugate(np.full(256, 3.7))
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_cubic_harmonic_pair(self):
        m = 1024
        t = 2.0 * math.pi * np.arange(m) / m
        out = harmonic_conjugate(np.cos(3 * t))
        np.testing.assert_allclose(out, np.sin(3 * t), atol=1e-12)

    def test_involution_on_band_limited_samples(self):
        rng = np.random.default_rng(np.random.Philox(52))
        m = 1024
        t = 2.0 * math.pi * np.arange(m) / m
        u = np.zeros(m)
        for k in range(1, m // 4):
            u += rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t)
        twice = harmonic_conjugate(harmonic_conjugate(u))
        np.testing.assert_allclose(twice, -u, atol=1e-12 * np.abs(u).max())


class TestEmbedding:
    def test_sphere_identity_on_grid(self, embedding):
        defect = embedding.sphere_defect()
        assert np.max(np.abs(defect[1:])) < 1e-8  # singular sample excluded

    def test_midpoint_defect_improves_with_grid(self, chain):
        coarse = assemble_embedding(chain, 2048)
        fine = assemble_embedding(chain, 8192)
        assert fine.midpoint_sphere_defect() < coarse.midpoint_sphere_defect()

    def test_midpoint_values_match_h(self, embedding):
        m = embedding.m
        h_mid = embedding._h_at_midpoints()
        for j in (0, 1, 7, m // 4, m // 2 + 3, m - 1):
            z = complex(np.exp(1j * (2.0 * math.pi * j / m + math.pi / m)))
            assert abs(h_mid[j] - embedding.h(z)) <= 1e-12 * max(1.0, abs(h_mid[j])), j

    def test_f2_vanishes_at_singularity(self, fine_embedding):
        assert fine_embedding.eval(1.0).coords[1] == 0.0
        # along the real approach the second coordinate decays, but only at
        # the 1/log(1/(1-x)) rate the construction dictates
        vals = [abs(fine_embedding.f2(1.0 - 2.0**-j)) for j in (4, 8, 12, 14)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.6

    def test_interior_point_inside_ball(self, embedding):
        p = embedding.eval(0.99 * np.exp(1j))
        assert p.norm < 1.0

    def test_maximum_modulus_sanity(self, embedding):
        rng = np.random.default_rng(np.random.Philox(53))
        z = 0.99 * np.sqrt(rng.uniform(size=1000)) * np.exp(2j * np.pi * rng.uniform(size=1000))
        for zv in z:
            assert embedding.eval(zv).norm < 1.0

    def test_properness_probe(self, fine_embedding):
        rng = np.random.default_rng(np.random.Philox(54))
        angles = rng.uniform(0.1, 2.0 * math.pi - 0.1, 64)
        for t in angles:
            norms = [fine_embedding.eval(x * np.exp(1j * t)).norm for x in (0.9, 0.99, 0.999)]
            assert norms[0] < norms[1] < norms[2]
            assert fine_embedding.eval(0.9999 * np.exp(1j * t)).norm > 0.99


class TestTangencyReport:
    def test_monotone_ratios(self, fine_embedding):
        rep = tangency_report(fine_embedding, 4, 14)
        assert rep.ratio1_decreasing
        assert rep.ratio2_increasing

    def test_model_fit_quality(self, fine_embedding):
        rep = tangency_report(fine_embedding, 4, 14)
        assert rep.correlation > 0.99
        assert rep.c1 > 0.0

    @pytest.mark.parametrize("j_min, j_max", [(4, 5), (15, 16), (6, 6), (9, 8)])
    def test_fit_window_needs_two_exponents(self, embedding, j_min, j_max):
        with pytest.raises(ValueError, match="fit window 6..14"):
            tangency_report(embedding, j_min, j_max)

    @pytest.mark.parametrize("j_min, j_max", [(4, 7), (13, 16)])
    def test_two_exponents_in_window_suffice(self, embedding, j_min, j_max):
        rep = tangency_report(embedding, j_min, j_max)
        assert len(rep.rows) == j_max - j_min + 1
        assert math.isfinite(rep.c1) and abs(rep.correlation) == pytest.approx(1.0)

    @pytest.mark.parametrize("j_min, j_max", [(0, 8), (-3, 8), (6, 54), (6, 60)])
    def test_exponents_outside_1_to_53_rejected(self, embedding, j_min, j_max):
        with pytest.raises(ValueError, match="outside 1..53"):
            tangency_report(embedding, j_min, j_max)

    @pytest.mark.parametrize("j_min, j_max", [(1, 8), (6, 53)])
    def test_exponent_bounds_accepted(self, embedding, j_min, j_max):
        rep = tangency_report(embedding, j_min, j_max)
        xs = [r[0] for r in rep.rows]
        assert len(xs) == j_max - j_min + 1
        assert 0.0 < xs[0] and xs[-1] < 1.0
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_ratio2_reduces_to_first_coordinate(self, fine_embedding):
        rep = tangency_report(fine_embedding, 6, 10)
        x = 1.0 - 2.0**-8
        expected = (1.0 - fine_embedding.f1(x)).real / (1.0 - x)
        stored = dict((round(math.log2(1 - r[0])), r[2]) for r in rep.rows)
        assert stored[-8] == pytest.approx(expected, rel=1e-12)
