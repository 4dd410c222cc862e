"""Truncated power-series arithmetic for embedding moduli and kernel weights.

A diagonal disc embedding is described by squared amplitudes c_n >= 0 with
c_1 > 0 and sum(c_n) <= 1.  Its kernel weights a_n are the Taylor
coefficients of 1/(1 - g) where g(z) = sum_{n>=1} c_n z^n, and satisfy the
renewal-type recursion

    a_0 = 1,    a_n = sum_{k=1}^{n} c_k a_{n-k}.

Both conversion directions are implemented, and the direct recursions run
in extended precision (``np.longdouble``) at every length.
:func:`verified_moduli` checks an inversion by the residual of the renewal
identity.  ``weights_by_reciprocal`` is a second, independent route (Newton
iteration for the series reciprocal) kept deliberately separate from the
recursion so the two can cross-check each other.  :func:`doubling_limit`
reads every limit verdict of the package from a sequence's doublings.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import DomainError

# above this length inversion switches to the FFT/Newton reciprocal
_FFT_N = 8192


class CoefficientSequence:
    """Embedding moduli c_1..c_N, stored 0-based (``values[k]`` is c_{k+1}).

    A valid embedding requires all entries nonnegative, c_1 > 0 and
    sum(c_n) <= 1.  Construction with ``validate=False`` admits arbitrary
    real entries; this is how inversion output carrying negative entries
    (the complete-Pick failure signal) is represented.
    """

    __slots__ = ("values",)

    def __init__(self, values, *, validate: bool = True):
        v = np.atleast_1d(np.asarray(values, dtype=float)).copy()
        if v.ndim != 1 or v.size == 0:
            raise DomainError("moduli must form a nonempty 1-d sequence")
        if validate:
            if v[0] <= 0.0:
                raise DomainError("c_1 must be strictly positive")
            if np.any(v < 0.0):
                raise DomainError("moduli must be nonnegative")
            if float(v.sum()) > 1.0 + 1e-12:
                raise DomainError(
                    f"moduli must sum to at most 1, got {v.sum():.17g}"
                )
        self.values = v

    @property
    def n(self) -> int:
        return self.values.size

    def padded(self, n_terms: int) -> np.ndarray:
        """c_1..c_{n_terms} as an array, zero-padded or truncated."""
        out = np.zeros(n_terms)
        m = min(self.n, n_terms)
        out[:m] = self.values[:m]
        return out

    def __repr__(self) -> str:
        return f"CoefficientSequence(n={self.n}, head={self.values[:3]})"


class KernelWeights:
    """Kernel Taylor weights a_0..a_N with a_0 = 1 and finite a_n > 0.

    ``values[k]`` is a_k.  Weights derived from a valid embedding also
    satisfy a_n <= 1 and supermultiplicativity a_k * a_n <= a_{n+k}; those
    are consequences, not construction requirements (families such as
    a_n = (n+1)^s with s > 0 are legitimate inputs to the inversion).
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.atleast_1d(np.asarray(values, dtype=float)).copy()
        if v.ndim != 1 or v.size < 2:
            raise DomainError("weights must contain a_0 and at least a_1")
        if v[0] != 1.0:
            raise DomainError(f"a_0 must equal 1, got {v[0]!r}")
        if not np.all(np.isfinite(v)):
            raise DomainError("all weights must be finite")
        if np.any(v <= 0.0):
            raise DomainError("all weights must be strictly positive")
        self.values = v

    @property
    def n(self) -> int:
        """Truncation order N (the last available index)."""
        return self.values.size - 1

    def padded(self, n_terms: int) -> np.ndarray:
        if self.n < n_terms:
            raise DomainError(
                f"weights known to order {self.n}, need {n_terms}"
            )
        return self.values[: n_terms + 1]

    def __repr__(self) -> str:
        return f"KernelWeights(n={self.n}, head={self.values[:3]})"


def weights_from_moduli(c: CoefficientSequence, n_terms: int) -> KernelWeights:
    """Run the convolution recursion a_n = sum_{k<=n} c_k a_{n-k} up to a_{n_terms}.

    Moduli are zero beyond their stored length.  The
    :class:`CoefficientSequence` constructor rejects moduli that are not a
    valid embedding, unvalidated ones included.  The accumulation runs in
    extended precision.
    """
    c = CoefficientSequence(c.values if isinstance(c, CoefficientSequence) else c)
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    a = _renewal(c.padded(n_terms).astype(np.longdouble))
    return KernelWeights(np.asarray(a, dtype=float))


def _renewal(cv: np.ndarray) -> np.ndarray:
    """a_0..a_N from any real c_1..c_N by the recursion, in ``cv.dtype``."""
    a = np.empty(cv.size + 1, dtype=cv.dtype)
    a[0] = 1.0
    for m in range(1, cv.size + 1):
        a[m] = np.dot(cv[:m], a[m - 1 :: -1])
    return a


def moduli_from_weights(a: KernelWeights) -> CoefficientSequence:
    """Invert the recursion: Taylor coefficients of 1 - 1/(sum a_n z^n), c_1..c_N.

    Up to ``_FFT_N`` terms the recursion is solved term by term in extended
    precision; above, by the FFT/Newton :func:`series_reciprocal` in
    O(N log N).  :func:`verified_moduli` checks either output against the
    weights.  Negative output entries are returned, not rejected -- their
    sign is the content of the ``cnp`` column of
    :func:`~npdisclab.kernels.classify`.
    """
    if not isinstance(a, KernelWeights):
        a = KernelWeights(a)
    n, av = a.n, a.values
    if n > _FFT_N:
        recip = series_reciprocal(av, n)
        return CoefficientSequence(-recip[1:], validate=False)
    aw = av.astype(np.longdouble)
    cv = np.empty(n, dtype=np.longdouble)
    for m in range(1, n + 1):
        cv[m - 1] = aw[m] - np.dot(cv[: m - 1], aw[m - 1 : 0 : -1])
    return CoefficientSequence(np.asarray(cv, dtype=float), validate=False)


def verified_moduli(a: KernelWeights) -> CoefficientSequence:
    """Invert ``a`` and check the moduli by the residual of the renewal identity.

    The residual is r = a - delta_0 - (0, c) * a.  Above ``_FFT_N`` terms,
    where :func:`moduli_from_weights` runs the FFT/Newton reciprocal, it is
    one :func:`fft_convolve` call; up to ``_FFT_N``, where the inversion is
    the O(N^2) recursion anyway, the sums are direct.  Each check raises
    DomainError:

    - consistency: |r_n| <= 1e-10 max(|a_n|, 1) for every n;
    - certification, Newton path only: the exact moduli c* satisfy
      c - c* = -r * (1 - C*), so each modulus lies within
      ||r||_inf (1 + ||c||_1) of its exact value (to first order); that
      bound must not exceed ``CNP_TOL``, the margin at which
      :func:`~npdisclab.kernels.classify` reads the moduli's sign.  The
      direct path solves the recursion itself, and there the bound is
      pessimistic: 1.6e-10 at hs:1.8, N = 128.

    The FFT residual carries its own rounding, about
    3 log2(L) u ||a||_2 ||(0, c)||_2 for three real transforms of length L
    and unit roundoff u (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 24).  That is the residual's noise floor, not a gate:
    at hs:1, N = 1024 it is 1.56 times the tolerance at n = 0.  At hs:2,
    N = 128 the FFT residual of the exact integer moduli is 4.5e-10
    relative, while direct sums give 0.  Inversion and check run with
    overflow and invalid-value warnings off; a NaN or inf fails them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = moduli_from_weights(a)
        av = a.values
        newton = a.n > _FFT_N
        conv = fft_convolve if newton else np.convolve
        r = av - conv(np.concatenate(([0.0], c.values)), av)[: av.size]
        r[0] -= 1.0
        err = np.abs(r)
        if not np.all(err <= 1e-10 * np.maximum(np.abs(av), 1.0)):
            raise DomainError(
                f"weights and moduli are inconsistent (max defect {err.max():.3g})"
            )
        if newton:
            bound = float(err.max()) * (1.0 + float(np.abs(c.values).sum()))
            if not bound <= CNP_TOL:
                raise DomainError(
                    f"inverted moduli are not certified to {CNP_TOL:g} (error bound {bound:.3g})"
                )
    return c


def _fast_fft_len(n: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching ceil(n / p35)
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fft_convolve(x, y) -> np.ndarray:
    """Full linear convolution of two real 1-d arrays through the real FFT.

    The transform length is the smallest 5-smooth number covering the
    result, the length SciPy's ``fftconvolve`` picks; with it numpy's
    pocketfft returns the same bits as that function whenever both inputs
    hold two or more entries, while power-of-two padding moves the last few
    ulps.

    Operand order is part of the output bits.  numpy's complex ``a * b``
    can differ from ``b * a`` in the last bit (on an AVX-512 CPU, about a
    third of random products do), and for ``a * <temporary>`` numpy's
    temporary elision computes ``<temporary> * a``.  A rewrite that reuses
    a spectrum keeps rfft(x) * rfft(y) in this order, for instance with
    ``np.multiply(fx, fy, out=fy)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size = x.size + y.size - 1
    n = _fast_fft_len(size)
    return np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(y, n), n)[:size]


def series_reciprocal(d: np.ndarray, n_terms: int) -> np.ndarray:
    """Coefficients of 1/D(z) through order ``n_terms``, D(0) != 0.

    Newton doubling r <- r(2 - D r): a computation path independent of the
    linear recursion, used as its cross-check and as the O(N log N)
    inversion above ``_FFT_N``.  Convolutions longer than 512 go through
    :func:`fft_convolve`.
    """
    d = np.asarray(d, dtype=float)
    if d[0] == 0.0:
        raise DomainError("series with zero constant term has no reciprocal")

    def conv(x, y, length):
        if length > 512:
            return fft_convolve(x, y)[:length]
        return np.convolve(x, y)[:length]

    r = np.array([1.0 / d[0]])
    size = n_terms + 1
    while r.size < size:
        m = min(2 * r.size, size)
        dr = conv(d[:m], r, m)
        grown = np.zeros(m)
        grown[: r.size] = 2.0 * r
        r = grown - conv(r, dr, m)
    # one refinement pass at full length tightens the last doubling step
    dr = conv(d[:size], r, size)
    r = 2.0 * r - conv(r, dr, size)
    return r


def weights_by_reciprocal(c: CoefficientSequence, n_terms: int) -> np.ndarray:
    """Weights a_0..a_{n_terms} via direct reciprocal expansion of 1 - g(z).

    Independent of :func:`weights_from_moduli`; the two must agree to
    1e-12 relative on valid input.
    """
    if not isinstance(c, CoefficientSequence):
        c = CoefficientSequence(c)
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    d = np.concatenate(([1.0], -c.padded(n_terms)))
    return series_reciprocal(d, n_terms)


#: inverted moduli down to -CNP_TOL still count as nonnegative
CNP_TOL = 1e-10


#: a ratio of successive doubling increments at or below this reads as converging
Q_CONVERGED = 0.99
#: complete doublings a limit verdict needs
MIN_DOUBLINGS = 4


class DoublingLimit(NamedTuple):
    """A :func:`doubling_limit` verdict: ``converged`` is True, False (diverging) or
    None (inconclusive, never truthy); ``value`` the limit, +-inf or nan."""

    value: float
    tail: float  # error estimate of a converged value
    converged: bool | None


def doubling_points(x, reduce=None) -> np.ndarray:
    """``x`` at the complete doublings n = 1, 2, 4, ..., 2^K <= x.size: the running
    ``reduce`` (``np.add``, ``np.maximum``) of its first n entries, or x[n - 1]."""
    ends = 1 << np.arange(np.size(x).bit_length())
    if reduce is None:
        return np.asarray(x)[ends - 1]
    return reduce.accumulate(reduce.reduceat(x[: ends[-1]], np.r_[0, ends[:-1]]))


def doubling_limit(values, err=0.0) -> DoublingLimit:
    """Limit of a sequence from its values S at n = 1, 2, 4, ..., 2^K.

    The ratios q = |d_(k+1)| / |d_k| of its last five increments decide (four at
    K = ``MIN_DOUBLINGS``; below, nothing is decided).  An increment within the
    rounding of two values, each within ``err``, is zero, as is a ratio after it.
    Converged: every q <= ``Q_CONVERGED``, and q not rising toward 1 (the last q
    at most (1 - max q)/10 above the least).  The limit is S + d q/(1 - q) from
    the last d and q, with tail |d q/(1 - q)| (C. Brezinski and M. Redivo Zaglia,
    *Extrapolation Methods*, 1991).  Diverging: every q >= 1 within rounding, and
    no d zero.  Log and log-log growth read diverging and inconclusive.
    """
    v = np.asarray(values, dtype=float)
    if v.size > MIN_DOUBLINGS:
        d = np.abs(np.diff(v)[-5:])
        d[d <= 2.0 * err] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(d[1:] == 0.0, 0.0, d[1:] / d[:-1])
        if q.max() <= Q_CONVERGED and q[-1] - q.min() <= (1.0 - q.max()) / 10:
            step = float((v[-1] - v[-2]) * q[-1] / (1.0 - q[-1]))
            return DoublingLimit(float(v[-1]) + step, abs(step), True)
        if np.all(d[:-1] > 0.0) and np.all(d[1:] + 4.0 * err >= d[:-1]):
            return DoublingLimit(math.copysign(math.inf, v[-1] - v[-2]), math.nan, False)
    return DoublingLimit(math.nan, math.nan, None)


def power_sum(coeffs: np.ndarray, t) -> np.ndarray:
    """sum_k coeffs[k] t^k by Horner, in place: the one truncated power-sum evaluator.

    Returns an array shaped, and complex or real, like ``t`` (0-d for a scalar).
    """
    t = np.asarray(t)
    acc = np.full(t.shape, coeffs[-1], dtype=np.result_type(t, coeffs))
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc
