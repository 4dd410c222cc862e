"""Pseudohyperbolic geometry of the complex ball and embedded-disc curves.

The distance between interior points z, w is

    d(z, w)^2 = 1 - (1 - |w|^2)(1 - |z|^2) / |1 - <w, z>|^2 = |phi_w(z)|^2,

where phi_w is the ball automorphism swapping w and 0.  Points very close
to the boundary lose all their information in plain coordinates, so a point
may carry its boundary gap 1 - |z| exactly.

:class:`PointTable` is the one owner of 1 - <z_i, z_j>, the quantity behind
every kernel entry and ball-point distance: it stacks the points'
coordinates once and forms 1 - <z_i, z_j> over broadcast index arrays,
through the exact gap algebra 1 - z*w = g_z + g_w - g_z*g_w wherever both
points are radial and real, so pairs far below double-precision resolution
stay cancellation-free.  The Pick layer reads it; disc-sequence distances
come from :func:`pseudo_dist_scalar` or :func:`radial_log_gap_dist`
instead.  Pairwise consumers of both reduce over the row slices of
:func:`~npdisclab.row_blocks`, at most ``BLOCK_ENTRIES`` entries each.

The curves are :class:`EmbeddedDisc` and :class:`CrossingCurve`.  The
curve functions read three closed-form methods of either: ``coords(z)``
and ``deriv(z)`` at one point (the boundary pairings), and the array inner
product ``inner(z1, z2)`` (tangency ratios and image distances).  Curve
inner products, disc and image distances and the tangency ratios
broadcast over arrays; the distortion profile is one array pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import DomainError

#: interior points must keep this much distance from the sphere unless a gap
#: is carried exactly
_INTERIOR_EPS = 1e-15

class BallPoint:
    """Point of a finite-dimensional slice of the ball, boundary flagged.

    ``gap`` is the exact value of 1 - ||z|| when the constructor knows it
    (e.g. radial sequences {1 - e^{-n^2}} whose coordinates round to 1.0 in
    floating point).  ``one_minus_sq`` caches 1 - ||z||^2.
    """

    __slots__ = ("coords", "gap", "one_minus_sq")

    def __init__(self, coords, gap: float | None = None,
                 one_minus_sq: float | None = None):
        self.coords = np.atleast_1d(np.asarray(coords, dtype=complex))
        self.gap = gap
        if gap is not None:
            self.one_minus_sq = gap * (2.0 - gap)
        elif one_minus_sq is not None:
            self.one_minus_sq = float(one_minus_sq)
        else:
            with np.errstate(over="ignore"):  # an infinite norm is exterior anyway
                sq = float(np.sum(np.abs(self.coords) ** 2))
            self.one_minus_sq = 1.0 - sq

    @property
    def norm(self) -> float:
        return math.sqrt(max(1.0 - self.one_minus_sq, 0.0))

    @property
    def is_interior(self) -> bool:
        return self.one_minus_sq > _INTERIOR_EPS or (
            self.gap is not None and self.gap > 0.0
        )

    @property
    def is_radial_real(self) -> bool:
        return (
            self.gap is not None
            and self.coords.size == 1
            and self.coords[0].imag == 0.0
            and self.coords[0].real >= 0.0
        )

    def __repr__(self) -> str:
        return f"BallPoint(dim={self.coords.size}, norm={self.norm:.6g})"


class PointTable:
    """Ball points stacked once: the single owner of 1 - <z_i, z_j>.

    ``coords`` holds the coordinates as rows of one matrix, shorter points
    zero-padded; ``gaps`` holds the exact gap of every radial real point and
    nan for the others.
    """

    __slots__ = ("coords", "gaps")

    def __init__(self, pts):
        dim = max((p.coords.size for p in pts), default=1)
        self.coords = np.zeros((len(pts), dim), dtype=complex)
        for i, p in enumerate(pts):
            self.coords[i, : p.coords.size] = p.coords
        self.gaps = np.array([p.gap if p.is_radial_real else math.nan for p in pts])

    def one_minus_inner(self, rows, cols) -> np.ndarray:
        """1 - <z_i, z_j> over broadcast index arrays ``rows`` and ``cols``.

        Pairs of radial real points use the exact gap algebra
        g_i + g_j - g_i g_j, which stays accurate when both gaps are far
        below machine epsilon; all other pairs use the coordinates.  Where
        ``rows == cols`` only the real part 1 - |z_i|^2 is kept, dropping
        the rounding residue the complex product leaves in the imaginary
        part.
        """
        omt = 1.0 - np.sum(self.coords[rows] * np.conj(self.coords[cols]), axis=-1)
        omt = np.where(np.equal(rows, cols), omt.real, omt)
        gi, gj = self.gaps[rows], self.gaps[cols]
        return np.where(np.isnan(gi + gj), omt, gi + gj - gi * gj)


def pseudo_dist_scalar(z, w):
    """|z - w| / |1 - z conj(w)| for disc points, broadcast; 0 where they coincide."""
    num = np.abs(np.subtract(z, w))
    return num / np.where(num == 0.0, 1.0, np.abs(1.0 - np.multiply(z, np.conj(w))))


def radial_log_gap_dist(log_gap_a, log_gap_b) -> float | np.ndarray:
    """Distance between the real points 1 - e^log_gap_a and 1 - e^log_gap_b.

    Handles gaps far below the double-precision underflow threshold; only
    the gap ratio and the larger gap (0 below e^-700) enter the formula.
    The log-gaps broadcast against each other; a scalar pair gives a float.
    """
    hi = np.maximum(log_gap_a, log_gap_b)
    delta = np.minimum(log_gap_a, log_gap_b) - hi  # log of the small/large ratio, <= 0
    small_over_large = np.exp(delta)
    large = np.where(hi > -700.0, np.exp(np.maximum(hi, -700.0)), 0.0)
    d = -np.expm1(delta) / (1.0 + small_over_large - large * small_over_large)
    return d if d.ndim else float(d)


class EmbeddedDisc:
    """The kernel's own embedding f(z) = (b_1 z, b_2 z^2, ...), b_n = sqrt(c_n).

    A view of its :class:`~npdisclab.kernels.KernelHandle`: the coordinates
    are the truncated moduli's square roots, and inner products are the
    handle's generating function, <f(z1), f(z2)> = g(z1 conj(z2)), so they
    keep the full tail wherever the family has a closed form.  The renewal
    mean is read from the handle when a derivative is asked for on the
    circle.
    """

    def __init__(self, handle):
        cv = handle.moduli.values
        if np.any(cv < -1e-12):
            raise DomainError(
                f"family {handle.family_tag!r} has negative moduli; no embedding"
            )
        mass = cv.sum()
        if mass > 1.0 + 1e-12:
            raise DomainError(
                f"family {handle.family_tag!r} has moduli summing to {mass:.17g}, "
                f"above 1; no embedding"
            )
        self.handle = handle
        self.amplitudes = np.sqrt(np.clip(cv, 0.0, None))

    @property
    def n(self) -> int:
        return self.amplitudes.size

    def inner(self, z1, z2):
        """<f(z1), f(z2)> = g(z1 conj(z2))."""
        return self.handle.generating_value(np.multiply(z1, np.conj(z2)))

    def coords(self, z: complex) -> np.ndarray:
        """The truncated coordinates b_n z^n, without the generating function."""
        z = complex(z)
        if abs(z) > 1.0 + 1e-12:
            raise DomainError("embedding evaluated outside the closed disc")
        return self.amplitudes * z ** np.arange(1, self.n + 1)

    def eval(self, z: complex) -> BallPoint:
        """f(z) with ||f(z)||^2 = g(|z|^2).  Within 1e-12 of the circle
        |z|^2 is taken as exactly 1: in floating point it often misses 1
        there, and for s >= -1 the hs sum refuses every circle point but 1."""
        z = complex(z)
        t = 1.0 if abs(z) > 1.0 - 1e-12 else abs(z) ** 2
        return BallPoint(self.coords(z), one_minus_sq=1.0 - self.handle.generating_value(t).real)

    def deriv(self, z: complex) -> np.ndarray:
        """f'(z) of the truncated coordinates; refused on the circle unless the
        renewal mean mu = sum n c_n, which is <f(z), z f'(z)> there, is finite."""
        z = complex(z)
        if abs(z) > 1.0 - 1e-12 and not math.isfinite(self.handle.renewal_mean()):
            raise DomainError(
                "derivative series diverges on the boundary for this embedding"
            )
        n = np.arange(1, self.n + 1)
        return n * self.amplitudes * z ** (n - 1)


class CrossingCurve:
    """The rational curve (z^2, b(z)^2)/sqrt(2) with b a disc automorphism.

    Proper into the two-ball, injective except f(-1) = f(1): the image
    boundary crosses itself at that point.
    """

    def __init__(self, r: float):
        if not 0.0 < r < 1.0:
            raise DomainError("automorphism parameter must lie in (0, 1)")
        self.r = r

    def b(self, z):
        """The disc automorphism (z - r)/(1 - r z)."""
        return (z - self.r) / (1.0 - self.r * z)

    def coords(self, z: complex) -> np.ndarray:
        """The closed form (z^2, b(z)^2)/sqrt(2)."""
        z = complex(z)
        return np.array([z * z, self.b(z) ** 2]) / math.sqrt(2.0)

    def eval(self, z: complex) -> BallPoint:
        return BallPoint(self.coords(z))

    def deriv(self, z: complex) -> np.ndarray:
        z, r = complex(z), self.r
        bp = (1.0 - r * r) / (1.0 - r * z) ** 2
        return np.array([2.0 * z, 2.0 * self.b(z) * bp]) / math.sqrt(2.0)

    def inner(self, z1, z2):
        w2 = np.conj(z2)
        return (z1 * z1 * w2 * w2 + self.b(z1) ** 2 * np.conj(self.b(z2)) ** 2) / 2.0


def _pairing(curve, z) -> float:
    """p(z) = Re <f(z), z f'(z)> at a point z of the circle."""
    tangent = curve.deriv(z) * z  # first: a divergent derivative decides before coords
    value = complex(np.dot(curve.coords(z), np.conj(tangent)))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError("pairing is non-finite at this boundary point")
    return value.real


def transversality_pairing(curve, t: float) -> float:
    """Re <f(z), f'(z) z> at z = e^{it}; positive for C^1 proper embeddings.

    Raises :class:`~npdisclab.DomainError` (via the curve) when the
    derivative series diverges at the boundary, the tangential signature.
    """
    return _pairing(curve, complex(np.exp(1j * t)))


def crossing_scalar(curve) -> float:
    """Positive scalar s with <f'(1), f(1)> = -s <f'(-1), f(-1)>, that is
    s = p(1)/p(-1) for the boundary pairing p.

    Computed from the two boundary pairings rather than hard-coded, so the
    construction stays parametric in the automorphism parameter.  The factor
    z = -1 in p(-1) is an exact negation.
    """
    p_neg = _pairing(curve, -1.0)
    if p_neg <= 0.0:
        raise DomainError("curve does not cross: <f'(-1), f(-1)> is not negative")
    return _pairing(curve, 1.0) / p_neg


def tangential_ratio(curve, x, t=0.0):
    """The two boundary-approach ratios along the ray x e^{it}, x in (0, 1).

    ratio1 = (1 - ||f(x e^{it})||) / ||f(e^{it}) - f(x e^{it})|| in (0, 1];
    ratio2 = Re <f(e^{it}) - f(x e^{it}), f(e^{it})> / (1 - x).

    The two formulations are inequivalent in general and are never merged;
    both are reported.
    """
    if not np.all((0.0 < x) & (x < 1.0)):
        raise DomainError("x must lie strictly between 0 and 1")
    e = np.exp(1j * t)
    xe = x * e
    ip_bb = curve.inner(e, e)
    ip_xx = curve.inner(xe, xe)
    ip_xb = curve.inner(xe, e)
    nx_sq = ip_xx.real
    # 1 - sqrt(q) = (1 - q)/(1 + sqrt(q)) avoids cancellation near the sphere
    num = (1.0 - nx_sq) / (1.0 + np.sqrt(np.maximum(nx_sq, 0.0)))
    diff_sq = (ip_bb - 2.0 * ip_xb.real + ip_xx).real
    ratio1 = num / np.sqrt(np.maximum(diff_sq, 0.0))
    ratio2 = (ip_bb - ip_xb).real / (1.0 - x)
    return ratio1, ratio2


class DistortionProfile(NamedTuple):
    """Pseudohyperbolic distances before and after a disc-to-ball map."""

    rows: np.ndarray  # (pairs, 2): d_source, d_image per pair
    ratio_min: float
    ratio_max: float


def image_distance(curve, lam, mu):
    """d(f(lambda), f(mu)) through the curve's inner products.

    The module's distance, rearranged free of the 1 - (nearly 1)
    cancellation, in the three inner products <f(l), f(l)>, <f(m), f(m)>,
    <f(l), f(m)>.
    """
    ipll = curve.inner(lam, lam).real
    ipmm = curve.inner(mu, mu).real
    iplm = curve.inner(lam, mu)
    num = ipll + ipmm - 2.0 * iplm.real + np.abs(iplm) ** 2 - ipll * ipmm
    den = np.abs(1.0 - iplm) ** 2
    return np.sqrt(np.clip(num / den, 0.0, 1.0))


def distortion_profile(curve, pairs) -> DistortionProfile:
    """d(lambda, mu) against d(f(lambda), f(mu)) for each disc pair.

    Raises DomainError unless every source point lies in the open unit disc.
    """
    pts = np.asarray(pairs, dtype=complex).reshape(-1, 2)
    outside = pts[~(np.abs(pts) < 1.0)]  # row-major: pair order
    if outside.size:
        raise DomainError(f"source point {complex(outside[0])!r} lies outside the open unit disc")
    d_src, d_img = pseudo_dist_scalar(*pts.T), image_distance(curve, *pts.T)
    ratios = d_img[d_src > 0.0] / d_src[d_src > 0.0]
    if not ratios.size:
        raise DomainError("no pair with distinct source points")
    return DistortionProfile(np.column_stack([d_src, d_img]), ratios.min(), ratios.max())
