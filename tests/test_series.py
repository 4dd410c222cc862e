import tracemalloc

import numpy as np
import pytest

from npdisclab import DomainError, kernels
from npdisclab.kernels import classify
from npdisclab.series import (
    CoefficientSequence,
    KernelWeights,
    _renewal,
    doubling_limit,
    doubling_points,
    fft_convolve,
    moduli_from_weights,
    series_reciprocal,
    weights_by_reciprocal,
    weights_from_moduli,
)

from .oracles import newton_reciprocal, rfft_product_convolve


def geometric_moduli(n):
    return CoefficientSequence([2.0 ** -(k + 1) for k in range(n)])


def random_valid_moduli(rng, n):
    # strictly positive mass at every index keeps all weights well above the
    # rounding floor, so relative comparisons at 1e-12 are meaningful
    raw = rng.uniform(0.1, 1.1, n)
    return CoefficientSequence(raw / raw.sum())


class TestValidation:
    def test_rejects_nonpositive_c1(self):
        with pytest.raises(DomainError, match="c_1 must be strictly positive"):
            CoefficientSequence([0.0, 0.5])
        with pytest.raises(DomainError, match="c_1 must be strictly positive"):
            CoefficientSequence([-0.1, 0.5])

    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError, match="moduli must be nonnegative"):
            CoefficientSequence([0.5, -0.01])

    def test_rejects_mass_above_one(self):
        with pytest.raises(DomainError, match="moduli must sum to at most 1"):
            CoefficientSequence([0.7, 0.7])

    def test_unvalidated_construction_keeps_negatives(self):
        c = CoefficientSequence([0.5, -0.25], validate=False)
        assert c.values[1] == -0.25

    def test_weights_require_unit_head(self):
        with pytest.raises(DomainError, match="a_0 must equal 1"):
            KernelWeights([0.5, 0.5])
        with pytest.raises(DomainError, match="all weights must be strictly positive"):
            KernelWeights([1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_weights_must_be_finite(self, bad):
        # nan passes every ordering test, so only an explicit check catches it
        with pytest.raises(DomainError, match="finite"):
            KernelWeights([1.0, 0.5, bad])

    def test_recursion_rejects_invalid_moduli(self):
        bad = CoefficientSequence([0.5, -0.25], validate=False)
        with pytest.raises(DomainError, match="moduli must be nonnegative"):
            weights_from_moduli(bad, 8)


class TestRecursion:
    def test_hardy_moduli_give_unit_weights(self):
        a = weights_from_moduli(CoefficientSequence([1.0]), 64)
        assert np.all(a.values == 1.0)

    def test_geometric_moduli_give_exact_half(self):
        # closed form: 1/(1-g) = (2-z)/(2-2z), so a_n = 1/2 for n >= 1
        a = weights_from_moduli(geometric_moduli(512), 512)
        assert a.values[0] == 1.0
        assert np.all(a.values[1:] == 0.5)

    def test_dirichlet_moduli_round_trip(self):
        # a_n = 1/(n+1): solving the recursion by hand gives c_1 = 1/2,
        # c_2 = 1/12 (a_1 = c_1, a_2 = c_1 a_1 + c_2)
        av = KernelWeights([1.0 / (n + 1) for n in range(257)])
        c = moduli_from_weights(av)
        assert c.values[0] == pytest.approx(0.5, abs=1e-15)
        assert c.values[1] == pytest.approx(1.0 / 12.0, abs=1e-15)
        back = weights_from_moduli(CoefficientSequence(c.values), 256)
        np.testing.assert_allclose(back.values, av.values, rtol=1e-12)


class TestRecursionOracle:
    """``_renewal`` against the same recursion run at 50 digits."""

    @staticmethod
    def _mp_renewal(mpmath, cv):
        c = [mpmath.mpf(float(x)) for x in cv]
        a = [mpmath.mpf(1)]
        for m in range(1, len(c) + 1):
            a.append(mpmath.fdot(c[:m], a[::-1]))  # c_1 a_{m-1} + ... + c_m a_0
        return a

    @pytest.mark.parametrize("n, dtype, bound", [
        (512, np.float64, 1e-13),
        (1024, np.longdouble, 1e-15),
    ], ids=["float64", "longdouble"])
    @pytest.mark.parametrize("family", ["geom:0.5", "hs:-0.5"])
    def test_matches_fifty_digit_recursion(self, n, dtype, bound, family):
        mpmath = pytest.importorskip("mpmath")
        if family == "geom:0.5":
            cv = geometric_moduli(n).values
        else:  # the moduli hs:-0.5 inverts to
            cv = moduli_from_weights(KernelWeights((np.arange(n + 1) + 1.0) ** -0.5)).values
        got = _renewal(cv.astype(dtype))
        assert got.dtype == dtype
        with mpmath.workdps(50):
            ref = self._mp_renewal(mpmath, cv)
            # str() round-trips float64 and longdouble alike
            err = max(abs(mpmath.mpf(str(g)) - r) / abs(r) for g, r in zip(got, ref))
        assert err <= bound


class TestInversionOracle:
    """``moduli_from_weights`` against the same weights inverted at 40 digits."""

    @pytest.mark.parametrize("s, n, bound", [
        (-0.5, 128, 1e-14),
        (-0.5, 512, 1e-14),
        (0.5, 256, 1e-9),
    ], ids=["hs:-0.5-N128", "hs:-0.5-N512", "hs:0.5-N256"])
    def test_matches_forty_digit_inversion(self, s, n, bound):
        mpmath = pytest.importorskip("mpmath")
        av = (np.arange(n + 1) + 1.0) ** s
        got = moduli_from_weights(KernelWeights(av)).values
        with mpmath.workdps(40):
            a = [mpmath.mpf(float(x)) for x in av]
            c = []
            for m in range(1, n + 1):  # c_m = a_m - (c_1 a_{m-1} + ... + c_{m-1} a_1)
                c.append(a[m] - mpmath.fdot(c, a[m - 1 : 0 : -1]))
            err = max(abs(mpmath.mpf(float(g)) - r) / abs(r) for g, r in zip(got, c))
        assert err <= bound


class TestInversion:
    def test_unit_weights_give_hardy_moduli(self):
        c = moduli_from_weights(KernelWeights(np.ones(65)))
        assert c.values[0] == 1.0
        assert np.all(c.values[1:] == 0.0)

    def test_hs_scale_nonnegative_for_s_in_minus_one_zero(self):
        for s in (0.0, -0.25, -0.5, -0.75, -1.0):
            a = KernelWeights((np.arange(129) + 1.0) ** s)
            c = moduli_from_weights(a)
            assert c.values.min() >= -1e-13, f"s={s}"

    def test_positive_s_produces_negative_modulus(self):
        a = KernelWeights((np.arange(51) + 1.0) ** 1.0)
        c = moduli_from_weights(a)
        # c_2 = a_2 - c_1 a_1 = 3 - 4 = -1
        assert c.values[1] == pytest.approx(-1.0, abs=1e-14)
        assert not classify(kernels.from_weights(a)).cnp


class TestCompleteNP:
    def test_dirichlet_is_complete_pick(self):
        a = KernelWeights(1.0 / (np.arange(257) + 1.0))
        assert classify(kernels.from_weights(a)).cnp

    def test_hardy_is_complete_pick(self):
        assert classify(kernels.from_weights(KernelWeights(np.ones(65)))).cnp


class TestGenerating:
    """1/(1 - g) from the moduli and the weights' power sum, through a handle."""

    def test_hardy_geometric_series(self):
        k = kernels.from_moduli(CoefficientSequence([1.0]), 256)
        assert 1.0 / (1.0 - k.generating_value(0.5)) == pytest.approx(2.0)

    def test_geometric_closed_form(self):
        # 1/(1-g) = (2-z)/(2-2z) -> 3/2 at z = 1/2
        k = kernels.from_moduli(geometric_moduli(128), 256)
        assert 1.0 / (1.0 - k.generating_value(0.5)) == pytest.approx(1.5, abs=1e-15)

    def test_dirichlet_log_identity(self):
        # sum z^n/(n+1) = -log(1-z)/z
        a = KernelWeights(1.0 / (np.arange(129) + 1.0))
        val = kernels.from_weights(a).kernel_value(0.5)
        assert val == pytest.approx(2.0 * np.log(2.0), abs=1e-14)

    def test_pair_consistency(self):
        rng = np.random.default_rng(np.random.Philox(3))
        k = kernels.from_moduli(random_valid_moduli(rng, 96), 96)
        for z in (0.3, -0.45, 0.2 + 0.4j):
            lhs = 1.0 / (1.0 - k.generating_value(z))
            assert lhs == pytest.approx(k.kernel_value(z), rel=1e-10)


class TestProperties:
    """Randomized structural properties of the conversion pair."""

    def test_round_trip_identity(self):
        rng = np.random.default_rng(np.random.Philox(11))
        for _ in range(20):
            n = int(rng.integers(5, 500))
            c = random_valid_moduli(rng, n)
            a = weights_from_moduli(c, n)
            back = moduli_from_weights(a)
            err = np.abs(back.values - c.values)
            tol = 1e-12 * np.abs(c.values) + 1e-14
            assert np.all(err <= tol)

    def test_supermultiplicativity(self):
        rng = np.random.default_rng(np.random.Philox(12))
        for _ in range(10):
            c = random_valid_moduli(rng, 120)
            av = weights_from_moduli(c, 120).values
            n = av.size - 1
            for k in range(n + 1):
                assert np.all(av[k] * av[: n + 1 - k] <= av[k:] * (1 + 1e-12))

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(np.random.Philox(13))
        for _ in range(10):
            av = weights_from_moduli(random_valid_moduli(rng, 150), 150).values
            assert np.all(av > 0.0)
            assert np.all(av <= 1.0 + 1e-12)

    def test_recursion_matches_reciprocal_oracle(self):
        rng = np.random.default_rng(np.random.Philox(14))
        for _ in range(10):
            c = random_valid_moduli(rng, 200)
            av = weights_from_moduli(c, 200).values
            oracle = weights_by_reciprocal(c, 200)
            assert np.max(np.abs(av - oracle) / np.abs(av)) < 1e-12

    def test_long_accumulation_path(self):
        # a long geometric run: exact halves forward, and back to the moduli
        c = geometric_moduli(1200)
        a = weights_from_moduli(c, 1200)
        assert np.all(a.values[1:] == 0.5)
        back = moduli_from_weights(a)
        np.testing.assert_allclose(back.values, c.padded(1200), rtol=1e-12, atol=1e-15)


class TestFftConvolve:
    # 513 and 1025 sit just past the switch in series_reciprocal; 4099 is prime
    LENGTHS = (1, 2, 7, 513, 1025, 4099)

    @staticmethod
    def _pair(n):
        rng = np.random.default_rng(np.random.Philox(n))
        return rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_direct_convolution(self, n):
        x, y = self._pair(n)
        direct = np.convolve(x, y)
        got = fft_convolve(x, y)
        assert got.shape == direct.shape
        assert np.max(np.abs(got - direct) / direct) < 1e-12

    @pytest.mark.parametrize("n", LENGTHS)
    def test_same_bits_as_scipy_fftconvolve(self, n):
        from scipy.signal import fftconvolve

        x, y = self._pair(n)
        assert np.array_equal(fft_convolve(x, y), fftconvolve(x, y))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestNewtonBits:
    """The in-place Newton steps and spectrum product against the one-expression
    forms of tests/oracles.py, both run here, so the pin holds on any CPU."""

    @pytest.mark.parametrize("n", [1000, 8193, 65536])
    def test_reciprocal_of_power_weights(self, n):
        d = (np.arange(n + 1) + 1.0) ** -0.5  # hs:-0.5, the classify workload's family
        assert np.array_equal(_bits(series_reciprocal(d, n)), _bits(newton_reciprocal(d, n)))

    @pytest.mark.parametrize("n", [1000, 8193, 65536])
    def test_reciprocal_of_one_minus_moduli(self, n):
        c = random_valid_moduli(np.random.default_rng(np.random.Philox(n)), n)
        d = np.concatenate(([1.0], -c.values))
        assert np.array_equal(_bits(series_reciprocal(d, n)), _bits(newton_reciprocal(d, n)))

    @pytest.mark.parametrize("n", [1, 2, 7, 513, 1025, 4099, 65537])
    def test_spectrum_product_keeps_its_operand_order(self, n):
        rng = np.random.default_rng(np.random.Philox(n + 7))
        for other in (n, 3 * n + 5):
            x, y = rng.standard_normal(n), rng.standard_normal(other)
            assert np.array_equal(_bits(fft_convolve(x, y)), _bits(rfft_product_convolve(x, y)))
            assert np.array_equal(_bits(fft_convolve(y, x)), _bits(rfft_product_convolve(y, x)))

    def test_reciprocal_holds_one_product_per_step(self):
        # r, dr, two spectra of 2N + 1 padded entries: about 6 (N + 1) doubles
        # at the peak, where a fresh array for every product and update took 9
        n = 2**16
        d = (np.arange(n + 1) + 1.0) ** -0.5
        series_reciprocal(d[:1000], 999)
        tracemalloc.start()
        try:
            series_reciprocal(d, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 8 * (n + 1)


class TestDoublingLimit:
    """The one owner of limit verdicts, on sequences with known limits."""

    N = 2.0 ** np.arange(17)

    def test_geometric_tail_is_extrapolated_exactly(self):
        lim = doubling_limit(3.0 - 2.0 / self.N)
        assert lim.converged is True
        assert lim.value == 3.0
        assert lim.tail == 2.0**-15

    def test_slow_growth_is_never_converged(self):
        assert doubling_limit(self.N).converged is False
        assert doubling_limit(np.log(self.N)).converged is False  # q = 1 exactly
        assert doubling_limit(np.log(np.log(self.N + 1) + 1)).converged is None

    def test_four_doublings_decide(self):
        assert doubling_limit([1.0, 1.5, 1.5, 1.5]).converged is None
        lim = doubling_limit([1.0, 1.5, 1.5, 1.5, 1.5])
        assert lim.converged is True and lim.value == 1.5 and lim.tail == 0.0

    def test_rounding_sized_increments_are_zero(self):
        values = 1.0 + 1e-15 * self.N[:8]
        assert doubling_limit(values).converged is False
        assert doubling_limit(values, err=1e-13).converged is True

    def test_points_read_complete_doublings_only(self):
        x = np.arange(1.0, 11.0)  # 10 entries: doublings 1, 2, 4, 8
        assert doubling_points(x).tolist() == [1.0, 2.0, 4.0, 8.0]
        assert doubling_points(x, np.add).tolist() == [1.0, 3.0, 10.0, 36.0]
        assert doubling_points(x[::-1], np.maximum).tolist() == [10.0] * 4
