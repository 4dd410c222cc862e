"""Reference code the tests check the library against; no recipe runs it.

- :func:`pseudo_dist` and :func:`mobius_auto`: the pseudohyperbolic distance
  of ball points and the automorphism phi_w, whose norm reproduces it and
  which leaves it invariant (W. Rudin, *Function Theory in the Unit Ball of
  C^n*, section 2.2); the Schwarz-Pick contraction of the embedded discs is
  checked with the distance too.
- :func:`radial_points` and :func:`radial_gap_dist`: a table of real
  points 1 - gap whose gaps are kept exact, and their distance through the
  gap algebra; :func:`stacked` joins tables, as tests that mix radial and
  general points need.
- :func:`separation_delta`: one point's separation constant delta_n, a
  factor at a time, against the sweep of
  :func:`~npdisclab.sequences.garnett_targets`.
- :func:`numeric_deriv`: central differences against the curves'
  closed-form derivatives.
- :func:`dyadic_separated`: the named sequence built one point at a time,
  against the array generator of
  :func:`~npdisclab.sequences.named_sequence`.
- :func:`tangential_point`: the coordinates of the tangential map
  F = (f_1, f_2) at one point, for the norm and distance checks.
- :func:`_normalized_pick`: unit-diagonal Pick blocks at given targets,
  against which the extractor's certified margins and its worst-case
  delta are checked.
- :func:`newton_reciprocal` and :func:`rfft_product_convolve`: the Newton
  reciprocal as one expression per step, with a fresh array for every
  product and update, and the real-FFT convolution as one expression,
  against which the in-place steps of
  :func:`~npdisclab.series.series_reciprocal` and
  :func:`~npdisclab.series.fft_convolve` are checked bit for bit.
"""

import math

import numpy as np

from npdisclab import DomainError
from npdisclab.geometry import PointTable
from npdisclab.pick import _correlation
from npdisclab.sequences import DiscSequence, SeparationDelta, _delta_record
from npdisclab.series import _fast_fft_len


def radial_points(gaps) -> PointTable:
    """The real points 1 - gap on the first axis, with the gaps kept exact."""
    gaps = np.asarray(gaps, dtype=float)
    if not np.all((0.0 < gaps) & (gaps <= 1.0)):
        raise DomainError("radial gap must lie in (0, 1]")
    return PointTable(1.0 - gaps, gaps)


def stacked(*tables: PointTable) -> PointTable:
    """The rows of ``tables`` in order, shorter coordinate rows zero-padded."""
    dim = max(t.coords.shape[1] for t in tables)
    coords = [np.pad(t.coords, ((0, 0), (0, dim - t.coords.shape[1]))) for t in tables]
    return PointTable(np.concatenate(coords), np.concatenate([t.gaps for t in tables]))


def pseudo_dist(table: PointTable, i: int = 0, j: int = 1) -> float:
    """Pseudohyperbolic distance between interior rows i and j of a table, in [0, 1).

    Uses the rearrangement

        d^2 = (||z - w||^2 - (||z||^2 ||w||^2 - |<z, w>|^2)) / |1 - <w, z>|^2,

    which is free of the 1 - (nearly 1) cancellation: it is exactly zero at
    coincident points and stays relatively accurate for close ones.  Radial
    pairs (no Gram defect) take :func:`radial_gap_dist` on their gaps.
    """
    if not (table.interior[i] and table.interior[j]):
        raise DomainError("distance formula degenerates at the boundary")
    gap_i, gap_j = table.radial_gaps[[i, j]]
    if not math.isnan(gap_i + gap_j):
        return radial_gap_dist(gap_i, gap_j)
    a, b = table.coords[i], table.coords[j]
    diff_sq = float(np.sum(np.abs(a - b) ** 2))
    # all three through the same dot-product path, so the defect is an
    # exact zero for identical coordinate arrays
    nz_sq = complex(np.dot(a, np.conj(a))).real
    nw_sq = complex(np.dot(b, np.conj(b))).real
    ip = complex(np.dot(a, np.conj(b)))
    num = diff_sq - (nz_sq * nw_sq - abs(ip) ** 2)
    dsq = num / abs(complex(table.one_minus_inner(j, i))) ** 2
    return math.sqrt(min(max(dsq, 0.0), 1.0))


def radial_gap_dist(gap_a: float, gap_b: float) -> float:
    """Distance between the real points 1 - gap_a and 1 - gap_b.

    Cancellation-free: the difference is formed from the gaps directly and
    1 - zw through the gap algebra of :class:`PointTable`.
    """
    table = radial_points([gap_a, gap_b])
    return abs(gap_a - gap_b) / float(table.one_minus_inner(0, 1).real)


def mobius_auto(w, z) -> np.ndarray:
    """The ball automorphism phi_w applied to z, both coordinate vectors.

    phi_w swaps w and 0; its norm at z reproduces the pseudohyperbolic
    distance: ||phi_w(z)|| = d(z, w).
    """
    wc, zc = np.asarray(w, dtype=complex), np.asarray(z, dtype=complex)
    wn_sq = float(np.sum(np.abs(wc) ** 2))
    if wn_sq == 0.0:
        return -zc
    ip_zw = complex(np.dot(zc, np.conj(wc)))
    denom = 1.0 - ip_zw
    if abs(denom) < 1e-15:
        raise DomainError("<z, w> too close to 1; points must be interior")
    proj = (ip_zw / wn_sq) * wc
    perp = zc - proj
    scale = math.sqrt(max(1.0 - wn_sq, 0.0))
    return (wc - proj - scale * perp) / denom


def separation_delta(s: DiscSequence, n: int) -> SeparationDelta:
    """delta_n = prod_{i != n} |b_{v_i}(v_n)|, the Blaschke-factor product.

    Each factor is the pseudohyperbolic distance d(v_i, v_n); the product is
    accumulated in log space and floored (with a flag) at log = -700 where
    the plain value would underflow.  The truncated product over-estimates
    the full one; callers see the truncation level through ``s.n``.

    This is the scalar per-point reference, one :meth:`DiscSequence.pair_dist`
    call per factor; :func:`~npdisclab.sequences.garnett_targets` computes
    every delta in one sweep over distance row blocks and is tested against it.
    """
    if not 0 <= n < s.n:
        raise IndexError(f"index {n} outside sequence of length {s.n}")
    log_total = 0.0
    for i in range(s.n):
        if i == n:
            continue
        d = s.pair_dist(i, n)
        log_total += math.log(d) if d > 0.0 else -math.inf
    return _delta_record(log_total)


def numeric_deriv(curve, z) -> np.ndarray:
    """f'(z) of ``curve`` by central differences with one Richardson step (step 1e-6)."""
    z, h = complex(z), 1e-6

    def central(step):
        return (curve.coords(z + step) - curve.coords(z - step)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def tangential_point(emb, z) -> np.ndarray:
    """F(z) = (f_1(z), f_2(z)) of a TangentialEmbedding, with F(1) = (1, 0) exactly."""
    z = complex(z)
    if z == 1.0:
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([emb.f1(z), emb.f2(z)], dtype=complex)


def dyadic_separated(n: int) -> DiscSequence:
    """``named_sequence("dyadic_separated", n)`` one point at a time."""
    pts, gaps, angles = [], [], []
    for m in range(1, n + 1):
        radius_gap = 2.0**-m
        for k in range(int(math.floor(2.0 ** (m / 2.0)))):
            theta = k * radius_gap  # k 2^-m, exact in binary
            pts.append((1.0 - radius_gap) * np.exp(1j * theta))
            gaps.append(radius_gap)
            angles.append(theta)
    return DiscSequence(pts, "dyadic_separated", gaps=gaps, angles=angles)


def _normalized_pick(log_block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Diagonally rescaled Pick blocks: unit diagonal, entries O(1).

    ``w`` is one target vector of length k or an (S, k) stack of them; the
    result is (k, k) or (S, k, k), formed in place in one array beside the
    real (S, k, k) normalizer.  Congruence keeps definiteness while
    avoiding the e^{n^2} dynamic range of raw kernel entries near the
    boundary.  A complex ``log_block`` (see :func:`_correlation`) with
    complex ``w`` gives the phase-correct matrix.
    """
    corr = _correlation(log_block)
    om = 1.0 - np.abs(w) ** 2
    b = w[..., :, None] * np.conj(w)[..., None, :]
    np.subtract(1.0, b, out=b)
    norm = om[..., :, None] * om[..., None, :]
    b /= np.sqrt(norm, out=norm)
    np.multiply(corr, b, out=b)
    b[..., np.arange(len(corr)), np.arange(len(corr))] = 1.0
    return b


def rfft_product_convolve(x, y) -> np.ndarray:
    """Full linear convolution as irfft(rfft(x) * rfft(y)) at the 5-smooth length."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size = x.size + y.size - 1
    n = _fast_fft_len(size)
    return np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(y, n), n)[:size]


def newton_reciprocal(d, n_terms: int) -> np.ndarray:
    """Coefficients of 1/D(z) through order ``n_terms`` by r <- r(2 - D r)."""
    d = np.asarray(d, dtype=float)

    def conv(x, y, length):
        if length > 512:
            return rfft_product_convolve(x, y)[:length]
        return np.convolve(x, y)[:length]

    r = np.array([1.0 / d[0]])
    size = n_terms + 1
    while r.size < size:
        m = min(2 * r.size, size)
        dr = conv(d[:m], r, m)
        grown = np.zeros(m)
        grown[: r.size] = 2.0 * r
        r = grown - conv(r, dr, m)
    dr = conv(d[:size], r, size)
    return 2.0 * r - conv(r, dr, size)
