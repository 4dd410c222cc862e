"""Truncated power-series arithmetic for embedding moduli and kernel weights.

A diagonal disc embedding is described by squared amplitudes c_n >= 0 with
c_1 > 0 and sum(c_n) <= 1.  Its kernel weights a_n are the Taylor
coefficients of 1/(1 - g) where g(z) = sum_{n>=1} c_n z^n, and satisfy the
renewal-type recursion

    a_0 = 1,    a_n = sum_{k=1}^{n} c_k a_{n-k}.

Both conversion directions are implemented.  ``weights_by_reciprocal`` is a
second, independent route (Newton iteration for the series reciprocal) kept
deliberately separate from the recursion so the two can cross-check each
other.
"""

from __future__ import annotations

import numpy as np

#: relative tolerance for round-trip identities
REL_TOL = 1e-12

# above this length the recursion accumulates in extended precision
_LONG_ACCUM_N = 1000
# above this length inversion switches to the FFT/Newton reciprocal
_FFT_N = 8192


class InvalidSequenceError(ValueError):
    """A moduli or weight sequence violates its constraints."""


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
            raise InvalidSequenceError("moduli must form a nonempty 1-d sequence")
        if validate:
            if v[0] <= 0.0:
                raise InvalidSequenceError("c_1 must be strictly positive")
            if np.any(v < 0.0):
                raise InvalidSequenceError("moduli must be nonnegative")
            if float(v.sum()) > 1.0 + 1e-12:
                raise InvalidSequenceError(
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
            raise InvalidSequenceError("weights must contain a_0 and at least a_1")
        if v[0] != 1.0:
            raise InvalidSequenceError(f"a_0 must equal 1, got {v[0]!r}")
        if not np.all(np.isfinite(v)):
            raise InvalidSequenceError("all weights must be finite")
        if np.any(v <= 0.0):
            raise InvalidSequenceError("all weights must be strictly positive")
        self.values = v

    @property
    def n(self) -> int:
        """Truncation order N (the last available index)."""
        return self.values.size - 1

    def padded(self, n_terms: int) -> np.ndarray:
        if self.n < n_terms:
            raise InvalidSequenceError(
                f"weights known to order {self.n}, need {n_terms}"
            )
        return self.values[: n_terms + 1]

    def __repr__(self) -> str:
        return f"KernelWeights(n={self.n}, head={self.values[:3]})"


def weights_from_moduli(c: CoefficientSequence, n_terms: int) -> KernelWeights:
    """Run the convolution recursion a_n = sum_{k<=n} c_k a_{n-k} up to a_{n_terms}.

    Moduli are zero beyond their stored length.  The
    :class:`CoefficientSequence` constructor rejects moduli that are not a
    valid embedding, unvalidated ones included.  Beyond ``_LONG_ACCUM_N``
    terms the accumulation runs in extended precision to keep long
    convolutions from drifting.
    """
    c = CoefficientSequence(c.values if isinstance(c, CoefficientSequence) else c)
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    dtype = np.longdouble if n_terms > _LONG_ACCUM_N else np.float64
    a = _renewal(c.padded(n_terms).astype(dtype))
    return KernelWeights(np.asarray(a, dtype=float))


def _renewal(cv: np.ndarray) -> np.ndarray:
    """a_0..a_N from any real c_1..c_N by the recursion, in ``cv.dtype``."""
    n = cv.size
    # rev[n - m] = a_m, so each step dots two stride-1 slices; a reversed
    # view of a would send every dot down BLAS's slow strided route
    rev = np.empty(n + 1, dtype=cv.dtype)
    rev[n] = 1.0
    for m in range(1, n + 1):
        rev[n - m] = np.dot(cv[:m], rev[n - m + 1 :])
    return rev[::-1].copy()


def moduli_from_weights(a: KernelWeights) -> CoefficientSequence:
    """Invert the recursion: Taylor coefficients of 1 - 1/(sum a_n z^n), c_1..c_N.

    Up to ``_FFT_N`` terms the recursion is solved term by term (extended
    precision above ``_LONG_ACCUM_N``); above, by the FFT/Newton
    :func:`series_reciprocal` in O(N log N).  ``kernels`` checks either
    output against the weights by the residual a - delta_0 - (0, c) * a.
    Negative output entries are returned, not rejected -- their sign is the
    content of the ``cnp`` column of :func:`~npdisclab.kernels.classify`.
    """
    if not isinstance(a, KernelWeights):
        a = KernelWeights(a)
    n, av = a.n, a.values
    if n > _FFT_N:
        recip = series_reciprocal(av, n)
        return CoefficientSequence(-recip[1:], validate=False)
    dtype = np.longdouble if n > _LONG_ACCUM_N else np.float64
    aw = av.astype(dtype)
    cv = np.empty(n, dtype=dtype)
    for m in range(1, n + 1):
        cv[m - 1] = aw[m] - np.dot(cv[: m - 1], aw[m - 1 : 0 : -1])
    return CoefficientSequence(np.asarray(cv, dtype=float), validate=False)


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
        raise InvalidSequenceError("series with zero constant term has no reciprocal")

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
    ``REL_TOL`` on valid input.
    """
    if not isinstance(c, CoefficientSequence):
        c = CoefficientSequence(c)
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    d = np.concatenate(([1.0], -c.padded(n_terms)))
    return series_reciprocal(d, n_terms)


#: inverted moduli down to -CNP_TOL still count as nonnegative
CNP_TOL = 1e-10


#: relative change of a partial sum between its halves below which the
#: sum is treated as converged (doubling test)
DOUBLING_TOL = 0.01


def settled(full: float, half: float) -> bool:
    """Doubling test: ``full`` differs from its leading half by at most DOUBLING_TOL.

    The change is taken in absolute value, so a sum drifting downwards
    through negative tail terms does not pass as converged.
    """
    return bool(abs(full - half) <= DOUBLING_TOL * max(abs(full), 1e-300))


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
