import math

import numpy as np
import pytest

import npdisclab
from npdisclab import DomainError, kernels, series
from npdisclab.csvio import format_cell
from npdisclab.kernels import (
    are_comparable,
    classify,
    continuity_bound,
    monomial_multiplier_norm,
)
from npdisclab.rounding import CNP_TOL
from npdisclab.series import (
    CoefficientSequence,
    KernelWeights,
    _renewal,
    doubling_limit,
    doubling_points,
    moduli_from_weights,
    weights_from_moduli,
)


class TestFamilies:
    def test_hardy_pair(self):
        k = kernels.hardy(32)
        assert np.all(k.weights.values == 1.0)
        assert k.moduli.values[0] == 1.0
        assert np.all(k.moduli.values[1:] == 0.0)

    def test_hs_moduli_by_inversion(self):
        k = kernels.hs(-1.0, 64)
        assert k.weights.values[3] == pytest.approx(0.25)
        assert k.moduli.values[0] == pytest.approx(0.5)
        assert k.moduli.values[1] == pytest.approx(1.0 / 12.0)

    def test_geometric_requires_admissible_ratio(self):
        with pytest.raises(ValueError):
            kernels.geometric(0.6, 8)
        k = kernels.geometric(0.5, 64)
        assert np.all(k.weights.values[1:] == 0.5)

    @pytest.mark.parametrize("make", [
        kernels.hardy,
        lambda n: kernels.geometric(0.5, n),
        lambda n: kernels.from_moduli(CoefficientSequence([0.7, 0.3]), n),
    ], ids=["hardy", "geom:0.5", "from_moduli"])
    def test_unchecked_families_are_consistent(self, make):
        # these handles skip the consistency check; the float64 recursion on
        # their moduli must reproduce their weights at 4096 terms
        k = make(4096)
        a = k.weights.values
        assert np.all(np.abs(_renewal(k.moduli.values) - a) <= 1e-10 * np.maximum(np.abs(a), 1.0))

    @pytest.mark.parametrize("q", [0.5, 0.25])
    def test_geometric_closed_form_matches_recursion(self, q):
        # dyadic ratios: the recursion and (2q)^n / 2 are both exact
        n = 1001
        a = weights_from_moduli(CoefficientSequence(q ** np.arange(1, n + 1)), n)
        assert np.array_equal(kernels.geometric(q, n).weights.values, a.values)

    @pytest.mark.parametrize("q", [0.3, 0.45, 0.49])
    def test_geometric_closed_form_against_mpmath(self, q):
        # a_n = q (2q)^(n-1) at 40 digits, q taken as the stored double
        mpmath = pytest.importorskip("mpmath")
        n = 1001
        got = kernels.geometric(q, n).weights.values
        with mpmath.workdps(40):
            mq = mpmath.mpf(q)
            ref = [mpmath.mpf(1)] + [mq * (2 * mq) ** (k - 1) for k in range(1, n + 1)]
            rel = max(abs((mpmath.mpf(float(g)) - r) / r) for g, r in zip(got, ref))
        assert rel <= 2.0**-52

    def test_drifting_inversion_is_rejected(self):
        # (n+1)^40 overflows the Newton reciprocal to nan, which fails every
        # comparison with the tolerance
        with pytest.raises(DomainError, match=r"inconsistent \(max defect nan\)"):
            kernels.hs(40.0, 16384)

    def test_parse_family_tags(self):
        assert kernels.parse_family("hardy", 16).family_tag == "hardy"
        assert kernels.parse_family("hs:-0.5", 16)._s == -0.5
        assert kernels.parse_family("geom:0.25", 16)._q == 0.25
        with pytest.raises(ValueError):
            kernels.parse_family("nope", 16)


class TestCustomCsv:
    @pytest.mark.parametrize("rows, want", [
        ("n,value\n1,0.5\n2,0.25\n", [0.5, 0.25]),
        ("# moduli\n\n1,0.5\n2,0.25\n", [0.5, 0.25]),
    ], ids=["header", "comment-and-blank"])
    def test_indices_from_one_are_moduli(self, rows, want, tmp_path):
        path = tmp_path / "moduli.csv"
        path.write_text(rows, encoding="utf-8")
        k = kernels.parse_family(f"custom:{path}", 8)
        assert list(k.moduli.values[:3]) == [*want, 0.0]

    def test_indices_from_zero_are_weights(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("n,value\n0,1\n1,0.5\n2,0.25\n", encoding="utf-8")
        k = kernels.parse_family(f"custom:{path}", 2)
        assert list(k.weights.values) == [1.0, 0.5, 0.25]

    def test_weights_are_cut_to_n(self, tmp_path):
        # N used to be ignored for weights: the handle kept one term per row
        path = tmp_path / "weights.csv"
        path.write_text("n,value\n0,1\n1,0.5\n2,0.25\n3,0.125\n", encoding="utf-8")
        k = kernels.parse_family(f"custom:{path}", 2)
        assert list(k.weights.values) == [1.0, 0.5, 0.25]
        assert k.n == 2

    def test_weights_shorter_than_n_are_refused(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("0,1\n1,0.5\n", encoding="utf-8")
        with pytest.raises(DomainError, match="weights known to order 1, need 8"):
            kernels.parse_family(f"custom:{path}", 8)

    @pytest.mark.parametrize("text, names", [
        (b"1,0.5\n\xff,2\n", "'utf-8' codec can't decode"),
        (b"1," + b"5" * 200000 + b"\n", "field larger than field limit"),
    ], ids=["not-utf-8", "oversized-field"])
    def test_unreadable_text_is_refused(self, text, names, tmp_path):
        # a UnicodeDecodeError used to pass for a domain error, and the csv
        # module's own error escaped with a traceback
        path = tmp_path / "family.csv"
        path.write_bytes(text)
        with pytest.raises(DomainError, match=f"custom CSV {str(path)!r}: {names}"):
            kernels.parse_family(f"custom:{path}", 8)

    @pytest.mark.parametrize("rows, line", [
        ("n,value\n1,0.5\n3,0.25\n", 3),  # used to load as c_2 = 0.25
        ("n,value\n0,1\n2,0.25\n", 3),
        ("1,0.5\n1,0.25\n", 2),
        ("n,value\n2,0.5\n3,0.25\n", 2),  # used to load as c_1, c_2
        ("n,value\n-1,0.5\n", 2),
        ("n,value\n1,0.5\nn,value\n", 3),
        ("n,value\n1.5,0.5\n", 2),
        ("n,value\n1,half\n", 2),
        ("n,value\n1,0.5,7\n", 2),
        ("n,value\n1\n", 2),
    ], ids=["gap", "weights-gap", "duplicate", "from-2", "negative", "late-header",
            "fractional-index", "bad-value", "three-cells", "one-cell"])
    def test_malformed_rows_are_refused_by_line(self, rows, line, tmp_path):
        path = tmp_path / "family.csv"
        path.write_text(rows, encoding="utf-8")
        row = rows.splitlines()[line - 1]
        with pytest.raises(ValueError) as info:
            kernels.parse_family(f"custom:{path}", 8)
        assert str(info.value).startswith(f"custom CSV {str(path)!r} line {line} ({row!r}): ")

    def test_no_rows_is_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("n,value\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no sequence rows"):
            kernels.parse_family(f"custom:{path}", 8)


class TestVerifiedModuli:
    """The residual check of inverted moduli against independent oracles."""

    @pytest.mark.parametrize("n", [256, 16384], ids=["direct", "newton"])
    def test_perturbed_modulus_is_inconsistent(self, n, monkeypatch):
        invert = series.moduli_from_weights

        def perturbed(a):
            c = invert(a)
            c.values[n // 2] += 1e-8
            return c

        monkeypatch.setattr(series, "moduli_from_weights", perturbed)
        with pytest.raises(DomainError, match="inconsistent"):
            kernels.hs(-0.5, n)

    def test_hs_one_newton_moduli_against_exact(self):
        # a_n = n + 1 = 1/(1 - z)^2, so c = 1 - (1 - z)^2 = (2, -1, 0, ...)
        n = 16384
        c = moduli_from_weights(KernelWeights(np.arange(n + 1) + 1.0)).values
        exact = np.zeros(n)
        exact[:2] = 2.0, -1.0
        assert np.max(np.abs(c - exact)) <= CNP_TOL  # 4.7e-11 measured
        # the residual cannot show it: ||r|| (1 + ||c||_1) is 1.3e-7, and
        # the drift is enough to move mu off 0 and fail the doubling test
        with pytest.raises(DomainError, match="not certified"):
            kernels.hs(1.0, n)

    def test_hs_two_integer_moduli_pass(self):
        # a_n = (n+1)^2 = (1 + z)/(1 - z)^3, so c = 1 - (1 - z)^3/(1 + z) =
        # (4, -7, 8, -8, 8, ...); direct sums check these integers exactly,
        # where an FFT residual would be 1.8e-7 off at N = 1024
        n = 1024
        exact = 8.0 * (-1.0) ** np.arange(n)
        exact[:2] = 4.0, -7.0
        assert np.array_equal(kernels.hs(2.0, n).moduli.values, exact)

    def test_hs_half_newton_moduli_against_direct_inversion(self, monkeypatch):
        k = kernels.hs(0.5, 16384)
        monkeypatch.setattr(series, "_FFT_N", 1 << 20)
        direct = moduli_from_weights(k.weights).values
        assert np.max(np.abs(k.moduli.values - direct)) <= 1e-12  # 2.7e-13 measured
        oracle = kernels.KernelHandle(
            k.weights, CoefficientSequence(direct, validate=False), k.family_tag, s=0.5
        )
        # every CSV cell agrees but mu and the last digits of moduli_mass.
        # mu (truth 0) is extrapolated as S + d q/(1 - q) from partial sums
        # S = 7.5e-3: 3.1e-6 with a tail of 7.5e-3, which cancellation
        # leaves 6e-10 apart between the two inversions
        got, ref = list(classify(k)), list(classify(oracle))
        assert got.pop(2) == pytest.approx(ref.pop(2), abs=1e-8)
        assert list(map(format_cell, got[:-1])) == list(map(format_cell, ref[:-1]))
        assert got[-1] == pytest.approx(ref[-1], rel=1e-12)

    def test_large_handles_skip_the_recursion(self, monkeypatch):
        # no O(N^2) renewal run on the way to an N = 65536 handle
        def boom(*args):
            raise AssertionError("renewal recursion called")

        monkeypatch.setattr(series, "_renewal", boom)
        monkeypatch.setattr(kernels, "_renewal", boom, raising=False)
        kernels.hs(-0.5, 65536)
        kernels.geometric(0.5, 65536)
        # (2q)^n / 2 underflows past n = 1073 and is refused at once
        with pytest.raises(DomainError, match="strictly positive"):
            kernels.geometric(0.25, 65536)


class TestKernelEval:
    def test_szego_at_half(self):
        k = kernels.hardy(128)
        assert k.kernel_value(0.5 * np.conj(0.5)) == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_unit_at_zero_argument(self):
        k = kernels.hardy(128)
        assert k.kernel_value(0.5 * np.conj(0.0)) == pytest.approx(1.0)

    def test_hs_minus_two_on_boundary(self):
        # sum (n+1)^-2 = pi^2/6, truncation tail below 1/N
        n = 4096
        k = kernels.hs(-2.0, n)
        val = k.kernel_value(1.0 * np.conj(1.0))
        assert abs(val - math.pi**2 / 6.0) <= 1.0 / n

    def test_agrees_with_moduli_form(self):
        k = kernels.geometric(0.5, 256)
        t = 0.4 * np.exp(1.2j)
        direct = k.kernel_value(t)
        via_g = 1.0 / (1.0 - k.generating_value(t))
        assert direct == pytest.approx(via_g, rel=1e-12)

    @pytest.mark.parametrize("family", ["hs:-0.5", "custom"])
    def test_defect_form_without_closed_form_is_the_series(self, family, tmp_path):
        if family == "custom":
            path = tmp_path / "moduli.csv"
            path.write_text("n,value\n1,0.5\n2,0.25\n", encoding="utf-8")
            family = f"custom:{path}"
        k = kernels.parse_family(family, 64)
        omt = np.array([0.5, 0.1 + 0.2j, 1e-3 - 1e-3j, 1.0])
        assert np.array_equal(k.kernel_from_defect(omt), k.kernel_value(1.0 - omt))


class TestPowerWeightGenerating:
    """A_s(t) = sum (n+1)^s t^n = lerchphi(t, -s, 1) against mpmath at 30 digits."""

    @pytest.mark.parametrize("s", [-2.0, -1.5, -1.0, -0.75, -0.5, 0.5])
    @pytest.mark.parametrize("radius", [0.5, 0.9, 0.999])
    def test_matches_lerchphi(self, s, radius):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            # the sum of the term magnitudes scales the documented bound
            scale = float(mpmath.lerchphi(radius, -s, 1))
            for theta in (0.3, 1.7, -2.4, 3.14159):
                t = radius * complex(math.cos(theta), math.sin(theta))
                want = complex(mpmath.lerchphi(mpmath.mpc(t.real, t.imag), -s, 1))
                got = kernels._hs_generating(s, t)
                assert abs(got - want) <= 1e-14 * scale, f"theta={theta}"

    @pytest.mark.parametrize("s", [-2.0, -0.5, 0.5])
    def test_array_equals_scalar_calls(self, s, monkeypatch):
        # each element runs its own stop rule inside the shared chunk loop;
        # t = 1 is A_s = inf (g = 1) for s >= -1 and is left out below that.
        # At the block bound 8 every chunk takes one row of t per block
        radius = np.array([0.0, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 1.0 if s >= -1.0 else 0.8])
        angle = np.array([0.0, 0.7, -2.5, 3.1, 1.2, -0.4, 2.0, 0.0])
        t = (radius * np.exp(1j * angle)).reshape(2, 4)
        k = kernels.hs(s, 64)
        bits = []
        for bound in (8, 2**14):
            monkeypatch.setattr(npdisclab, "BLOCK_ENTRIES", bound)
            got = k.generating_value(t)
            want = np.array([[k.generating_value(complex(v)) for v in row] for row in t])
            assert got.shape == t.shape
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
            bits.append(got.view(np.uint64).tobytes())
        assert bits[0] == bits[1]

    @pytest.mark.parametrize("s", [-0.5, 0.5])
    def test_refuses_the_circle_away_from_one(self, s):
        # the series does not converge absolutely there, so no truncation of
        # it is a value
        k = kernels.hs(s, 64)
        with pytest.raises(DomainError, match="unit circle"):
            k.generating_value(np.exp(0.7j))
        with pytest.raises(DomainError, match="unit circle"):
            k.generating_value(np.array([0.5, np.exp(-2.0j)]))
        assert k.generating_value(1.0) == 1.0  # A_s(1) = inf


class TestMonomialNorms:
    def test_hardy_norms_are_one(self):
        assert monomial_multiplier_norm(kernels.hardy(16), 7) == 1.0

    def test_dirichlet_norm(self):
        assert monomial_multiplier_norm(kernels.hs(-1.0, 16), 3) == pytest.approx(2.0)

    def test_geometric_norm(self):
        k = kernels.geometric(0.5, 16)
        for n in range(1, 8):
            assert monomial_multiplier_norm(k, n) == pytest.approx(math.sqrt(2.0))

    def test_norm_nondecreasing_when_supermultiplicative(self):
        k = kernels.hs(-0.5, 64)
        norms = [monomial_multiplier_norm(k, n) for n in range(65)]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


class TestComparability:
    def test_identical_sequences(self):
        a = kernels.hs(-0.5, 256).weights
        rep = are_comparable(a, a)
        assert rep.comparable
        assert rep.ratio_min == rep.ratio_max == 1.0

    def test_hardy_vs_hs_diverges(self):
        rep = are_comparable(kernels.hardy(512).weights, kernels.hs(-0.5, 512).weights)
        assert not rep.comparable
        assert rep.verdict == "diverging"

    def test_constant_rescaling_is_comparable(self):
        base = kernels.hs(-0.5, 256).weights
        scaled = base.values.copy()
        scaled[1:] *= 3.0
        rep = are_comparable(base, KernelWeights(scaled))
        assert rep.comparable
        assert rep.ratio_min == pytest.approx(1.0 / 3.0)
        assert rep.ratio_max == pytest.approx(1.0)


class TestClassify:
    def test_geometric_closed_forms(self):
        rep = classify(kernels.geometric(0.5, 256))
        assert rep.mu == pytest.approx(2.0, abs=1e-12)
        assert rep.efp_limit_estimate == pytest.approx(0.5, abs=1e-12)
        assert rep.iso_to_hinf
        assert not rep.compact_regime

    @pytest.mark.parametrize("family, n, want", [
        ("hs:-0.5", 128, 0.0), ("hs:-3", 65536, 0.0), ("geom:0.5", 256, 0.5),
        ("hardy", 1, math.nan),
    ])
    def test_efp_limit_is_the_owners_limit(self, family, n, want):
        # lim a_n is exp of the doubling limit of log a_n that iso_to_hinf reads:
        # 0 when a_n -> 0, nan when undecided (N = 1), never a mean of the tail
        rep = classify(kernels.parse_family(family, n))
        assert format_cell(rep.efp_limit_estimate) == format_cell(want)

    def test_hs_open_scale_not_iso(self):
        for s in (-0.25, -0.5, -1.0):
            rep = classify(kernels.hs(s, 1024))
            assert not rep.iso_to_hinf, f"s={s}"
            assert rep.cnp
            assert not rep.compact_regime

    def test_hs_compact_scale(self):
        rep = classify(kernels.hs(-2.0, 2048))
        assert rep.compact_regime
        assert math.isfinite(rep.strictly_cyclic_sup)
        assert rep.moduli_mass < 1.0

    def test_hardy_not_strictly_cyclic(self):
        rep = classify(kernels.hardy(512))
        assert math.isinf(rep.strictly_cyclic_sup)
        assert rep.ratio_bounded

    def test_efp_consistency_when_mu_converges(self):
        # two-point moduli: mu = c_1 + 2 c_2 = 1.3, a_n -> 1/1.3
        k = kernels.from_moduli(CoefficientSequence([0.7, 0.3]), 4096)
        rep = classify(k)
        assert math.isfinite(rep.mu)
        assert rep.efp_agreement < 1e-3

    @pytest.mark.parametrize("n", [128, 1024])
    def test_drifting_mu_is_not_reported(self, n):
        # hs:0.2 inverts to moduli with a negative tail, so the partial sums
        # of n c_n fall with N (0.426 at 128, 0.281 at 1024).  Their limit is
        # mu = g'(1) = lim A'/A^2 = 0, since A ~ Gamma(1.2) (1 - z)^-1.2
        k = kernels.hs(0.2, n)
        rep = classify(k)
        lim = doubling_limit(doubling_points(k.moduli.values * np.arange(1, n + 1), np.add))
        assert lim.converged is True
        assert rep.mu == lim.value
        assert abs(rep.mu - 0.0) <= lim.tail
        # the weights grow, so the algebra is not H^infty
        assert rep.iso_to_hinf is False
        assert math.isnan(rep.efp_agreement)

    @pytest.mark.parametrize("family, n", [("hs:-3", 65536), ("hs:-2.5", 65536),
                                           ("geom:0.25", 512)])
    def test_compact_regime_is_not_hinf(self, family, n):
        # sum c_n < 1: a_n -> 0 and every function of the space is continuous
        # on the closed disc, so the algebra is not H^infty although mu is finite
        rep = classify(kernels.parse_family(family, n))
        assert rep.compact_regime is True
        assert math.isfinite(rep.mu)
        assert rep.iso_to_hinf is False
        assert math.isnan(rep.efp_agreement)

    def test_gram_matrix_psd_on_random_nodes(self):
        rng = np.random.default_rng(np.random.Philox(21))
        for k in (kernels.hardy(512), kernels.hs(-0.5, 512), kernels.geometric(0.4, 512)):
            m = 12
            pts = 0.85 * rng.uniform(0.1, 1.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            gram = np.empty((m, m), dtype=complex)
            for i in range(m):
                for j in range(i, m):
                    gram[i, j] = k.kernel_value(pts[i] * np.conj(pts[j]))
                    gram[j, i] = np.conj(gram[i, j])
            eig = np.linalg.eigvalsh(gram)
            assert eig.min() >= -1e-10 * np.trace(gram).real


class TestContinuityBound:
    def test_zero_mass(self):
        # a handle with tiny moduli mass: bound reduces to the norm itself
        k = kernels.hs(-3.0, 512)
        r_sq = k.moduli_mass()
        assert continuity_bound(k, 1.0) == pytest.approx(1.0 / math.sqrt(1 - r_sq))

    def test_closed_form_value(self):
        class Stub:
            def is_compact_regime(self):
                return True

            def moduli_mass(self):
                return 0.75

        assert continuity_bound(Stub(), 1.0) == pytest.approx(2.0)

    def test_rejects_open_regime(self):
        with pytest.raises(DomainError, match="outside the compact regime"):
            continuity_bound(kernels.hardy(128), 1.0)

    def test_hs_minus_two_matches_mass(self):
        k = kernels.hs(-2.0, 2048)
        expected = 1.0 / math.sqrt(1.0 - k.moduli.values.sum())
        assert continuity_bound(k, 1.0) == pytest.approx(expected)


class TestLimitOracle:
    """Every limit verdict at N = 65 536 against the hs closed forms.

    a_n = (n+1)^s: sum a_n = zeta(-s) is finite iff s < -1, the strict-cyclicity
    sup is finite iff s < -1, and mu = (zeta(-s-1) - zeta(-s))/zeta(-s)^2 iff
    s < -2 (the weights tend to 0, so 1/mu = lim a_n = 0 otherwise).  No weight
    sequence tending to 0 gives H^infty.  A wrong verdict fails; an
    inconclusive one passes.
    """

    N = 65536
    S = (-0.005, -0.01, -0.05, -0.5, -1.0, -1.05, -1.2, -1.5, -2.0, -2.5, -3.0)

    @pytest.mark.parametrize("s", S)
    def test_classify_against_zeta(self, s):
        mpmath = pytest.importorskip("mpmath")
        k = kernels.hs(s, self.N)
        rep = classify(k)
        mass = doubling_limit(doubling_points(k.weights.values, np.add))
        assert rep.compact_regime is mass.converged
        if mass.converged is not None:
            assert mass.converged == (s < -1.0)
        if mass.converged:
            assert abs(mass.value - float(mpmath.zeta(-s))) <= mass.tail
        if not math.isnan(rep.mu):
            assert math.isfinite(rep.mu) == (s < -2.0)
        if math.isfinite(rep.mu):
            ncn = doubling_points(k.moduli.values * np.arange(1, self.N + 1), np.add)
            z0, z1 = mpmath.zeta(-s), mpmath.zeta(-s - 1.0)
            assert abs(rep.mu - float((z1 - z0) / z0**2)) <= doubling_limit(ncn).tail
        if not math.isnan(rep.strictly_cyclic_sup):
            assert math.isfinite(rep.strictly_cyclic_sup) == (s < -1.0)
        assert rep.iso_to_hinf is not True

    @pytest.mark.parametrize("t", [-0.499, -0.45, -0.35])
    def test_power_laws_are_not_comparable(self, t):
        rep = are_comparable(kernels.hs(-0.5, self.N).weights, kernels.hs(t, self.N).weights)
        assert rep.comparable is not True

    def test_rescaled_hardy_is_comparable(self):
        base = kernels.hardy(self.N).weights
        scaled = base.values.copy()
        scaled[1:] *= 3.0
        assert are_comparable(base, KernelWeights(scaled)).comparable is not False

    def test_slow_rise_to_one_is_inconclusive(self):
        # the running sup of the hs:-1 quotients (truth inf) rises with q
        # 0.9989 ... 0.9998: a rule without a margin below 1 extrapolates 7529
        assert math.isnan(classify(kernels.hs(-1.0, self.N)).strictly_cyclic_sup)

    def test_ratio_of_one_to_rounding_diverges(self):
        # the increments of log r are all (1/2) ln 2 to rounding, so q = 1
        # within rounding; the cell is a bool cell and must stay one
        rep = are_comparable(kernels.hardy(128).weights, kernels.hs(-0.5, 128).weights)
        assert rep.comparable is False
        assert rep.verdict == "diverging"

    def test_increments_that_vanish_converge_to_the_plain_sum(self):
        assert classify(kernels.geometric(0.5, 256)).mu == pytest.approx(2.0, abs=1e-12)
        assert classify(kernels.hs(1.0, 128)).mu == 0.0

    def test_incomplete_doubling_is_not_read(self):
        # a_0..a_128 is 129 entries: a one-term segment [128, 256) after the
        # seven complete ones would read as q = 1/64 and call hardy compact
        assert doubling_points(np.ones(129), np.add).tolist() == [1, 2, 4, 8, 16, 32, 64, 128]
        assert classify(kernels.hardy(128)).compact_regime is False
