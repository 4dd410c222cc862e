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
stay cancellation-free.  The Pick layer, :func:`one_minus_inner` and
:func:`radial_gap_dist` read it; disc-sequence distances come from
:func:`pseudo_dist_scalar` or :func:`radial_log_gap_dist` instead.
Pairwise consumers of both reduce over the row slices of
:func:`row_blocks`, at most ``BLOCK_ENTRIES`` entries each.

Every curve into the ball is a :class:`GeneralCurve` subclass:
:class:`EmbeddedDisc`, :class:`CrossingCurve` and the tangential embedding.
Curve inner products, disc and image distances and the tangency ratios
broadcast over arrays; the distortion profile is one array pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: interior points must keep this much distance from the sphere unless a gap
#: is carried exactly
_INTERIOR_EPS = 1e-15

#: most entries one row block of a pairwise or stacked layer holds (a block
#: always takes at least one row); pairwise layers reduce block by block, so
#: their temporaries stay at this size whatever the point count
BLOCK_ENTRIES = 2**14


def row_blocks(n_rows: int, row_len: int):
    """Consecutive row slices covering ``range(n_rows)``, each of at most
    ``BLOCK_ENTRIES`` entries for rows of ``row_len`` entries, at least one row."""
    step = max(1, BLOCK_ENTRIES // max(row_len, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


class BoundaryPointError(ValueError):
    """A boundary point was passed where an interior point is required."""


class BoundaryDivergenceError(ArithmeticError):
    """A boundary derivative was requested where the series diverges."""


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
            sq = float(np.sum(np.abs(self.coords) ** 2))
            self.one_minus_sq = 1.0 - sq

    @classmethod
    def radial(cls, gap: float) -> "BallPoint":
        """The real point 1 - gap on the first axis, with the gap kept exact."""
        if not 0.0 < gap <= 1.0:
            raise ValueError("radial gap must lie in (0, 1]")
        return cls([1.0 - gap], gap=gap)

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


def one_minus_inner(p: BallPoint, q: BallPoint) -> complex:
    """1 - <p, q>: the two-point call of :meth:`PointTable.one_minus_inner`."""
    return complex(PointTable([p, q]).one_minus_inner(0, 1))


def pseudo_dist(p: BallPoint, q: BallPoint) -> float:
    """Pseudohyperbolic distance between interior points, in [0, 1).

    Uses the rearrangement

        d^2 = (||z - w||^2 - (||z||^2 ||w||^2 - |<z, w>|^2)) / |1 - <w, z>|^2,

    which is free of the 1 - (nearly 1) cancellation: it is exactly zero at
    coincident points and stays relatively accurate for close ones.  Radial
    real pairs (no Gram defect) take :func:`radial_gap_dist` on their gaps.
    """
    if not (p.is_interior and q.is_interior):
        raise BoundaryPointError("distance formula degenerates at the boundary")
    if p.is_radial_real and q.is_radial_real:
        return radial_gap_dist(p.gap, q.gap)
    a, b = PointTable([p, q]).coords
    diff_sq = float(np.sum(np.abs(a - b) ** 2))
    # all three through the same dot-product path, so the defect is an
    # exact zero for identical coordinate arrays
    nz_sq = complex(np.dot(a, np.conj(a))).real
    nw_sq = complex(np.dot(b, np.conj(b))).real
    ip = complex(np.dot(a, np.conj(b)))
    num = diff_sq - (nz_sq * nw_sq - abs(ip) ** 2)
    dsq = num / abs(one_minus_inner(q, p)) ** 2
    return math.sqrt(min(max(dsq, 0.0), 1.0))


def pseudo_dist_scalar(z, w):
    """|z - w| / |1 - z conj(w)| for disc points, broadcast; 0 where they coincide."""
    num = np.abs(np.subtract(z, w))
    return num / np.where(num == 0.0, 1.0, np.abs(1.0 - np.multiply(z, np.conj(w))))


def radial_gap_dist(gap_a: float, gap_b: float) -> float:
    """Distance between the real points 1 - gap_a and 1 - gap_b.

    Cancellation-free: the difference is formed from the gaps directly and
    1 - zw through the gap algebra of :class:`PointTable`.
    """
    num = abs(gap_a - gap_b)
    return num / one_minus_inner(BallPoint.radial(gap_a), BallPoint.radial(gap_b)).real


def radial_log_gap_dist(log_gap_a, log_gap_b) -> float | np.ndarray:
    """Same as :func:`radial_gap_dist` with gaps given by their logarithms.

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


def mobius_auto(w: BallPoint, z: BallPoint) -> BallPoint:
    """The ball automorphism phi_w applied to z.

    phi_w swaps w and 0; its norm at z reproduces the pseudohyperbolic
    distance: ||phi_w(z)|| = d(z, w).
    """
    wc, zc = PointTable([w, z]).coords
    wn_sq = float(np.sum(np.abs(wc) ** 2))
    if wn_sq == 0.0:
        return BallPoint(-zc)
    ip_zw = complex(np.dot(zc, np.conj(wc)))
    denom = 1.0 - ip_zw
    if abs(denom) < 1e-15:
        raise BoundaryPointError("<z, w> too close to 1; points must be interior")
    proj = (ip_zw / wn_sq) * wc
    perp = zc - proj
    scale = math.sqrt(max(1.0 - wn_sq, 0.0))
    return BallPoint((wc - proj - scale * perp) / denom)


class GeneralCurve:
    """Analytic curve into the ball; subclasses override :meth:`eval`.

    The base :meth:`deriv` takes central differences with one Richardson
    step (step 1e-6) and the base :meth:`inner` the inner product of the two
    evaluated points.  Subclasses override both wherever a closed form
    exists; the numeric derivative is then a cross-check.
    """

    label = "curve"

    def eval(self, z: complex) -> BallPoint:
        raise NotImplementedError

    def deriv(self, z: complex) -> np.ndarray:
        z, h = complex(z), 1e-6

        def central(step):
            return (self.eval(z + step).coords - self.eval(z - step).coords) / (2.0 * step)

        return (4.0 * central(h / 2.0) - central(h)) / 3.0

    def inner(self, z1, z2):
        return np.vectorize(lambda a, b: np.dot(self.eval(a).coords, np.conj(self.eval(b).coords)),
                            otypes=[complex])(z1, z2)[()]


class EmbeddedDisc(GeneralCurve):
    """Diagonal embedding f(z) = (b_1 z, b_2 z^2, ...) truncated at order N.

    ``regime`` is "open" when the full amplitude mass is 1 (image closure
    touches the sphere) and "compact" when it is r < 1; the caller states
    it, as :meth:`from_kernel_handle` does from
    :meth:`~npdisclab.kernels.KernelHandle.is_compact_regime`.  ``gram`` may
    hold an exact evaluator for g(t) = sum |b_n|^2 t^n, in which case inner
    products bypass the truncated coordinates entirely.  ``boundary_c1``
    says whether the derivative extends to the circle (sum n |b_n|^2 < inf).
    """

    def __init__(self, amplitudes, regime: str, *,
                 gram=None, boundary_c1: bool):
        b = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
        if b.size == 0 or b[0] == 0.0:
            raise ValueError("first amplitude must be nonzero")
        mass = float(np.sum(np.abs(b) ** 2))
        if mass > 1.0 + 1e-9:
            raise ValueError(f"amplitude mass {mass:.6g} exceeds 1")
        if regime not in ("open", "compact"):
            raise ValueError(f"unknown regime {regime!r}")
        self.amplitudes = b
        self.regime = regime
        self.gram = gram
        self.boundary_c1 = boundary_c1
        self.label = f"embedded-disc(n={b.size})"

    @classmethod
    def from_kernel_handle(cls, handle) -> "EmbeddedDisc":
        """Amplitudes b_n = sqrt(c_n) of a complete-Pick handle."""
        cv = handle.moduli.values
        if np.any(cv < -1e-12):
            raise ValueError(
                f"family {handle.family_tag!r} has negative moduli; no embedding"
            )
        b = np.sqrt(np.clip(cv, 0.0, None))
        compact = handle.is_compact_regime()
        return cls(
            b,
            "compact" if compact else "open",
            gram=handle.generating_value,
            # the boundary derivative exists iff sum n c_n converges
            boundary_c1=math.isfinite(handle.renewal_mean()),
        )

    @property
    def n(self) -> int:
        return self.amplitudes.size

    def inner(self, z1, z2):
        """<f(z1), f(z2)> = g(z1 conj(z2))."""
        t = np.multiply(z1, np.conj(z2))
        if self.gram is not None:
            return self.gram(t)
        from .series import power_sum  # here only, so crossing and tangential runs skip series
        return (t * power_sum(np.abs(self.amplitudes) ** 2, t))[()]

    def eval(self, z: complex) -> BallPoint:
        z = complex(z)
        if abs(z) > 1.0 + 1e-12:
            raise ValueError("embedding evaluated outside the closed disc")
        coords = self.amplitudes * z ** np.arange(1, self.n + 1)
        one_minus = 1.0 - self.inner(z, z).real
        return BallPoint(coords, one_minus_sq=one_minus)

    def deriv(self, z: complex) -> np.ndarray:
        z = complex(z)
        if abs(z) > 1.0 - 1e-12 and self.regime == "open" and not self.boundary_c1:
            raise BoundaryDivergenceError(
                "derivative series diverges on the boundary for this embedding"
            )
        n = np.arange(1, self.n + 1)
        return n * self.amplitudes * z ** (n - 1)


class CrossingCurve(GeneralCurve):
    """The rational curve (z^2, b(z)^2)/sqrt(2) with b a disc automorphism.

    Proper into the two-ball, injective except f(-1) = f(1): the image
    boundary crosses itself at that point.
    """

    def __init__(self, r: float):
        if not 0.0 < r < 1.0:
            raise ValueError("automorphism parameter must lie in (0, 1)")
        self.r = r
        self.label = f"crossing(r={r:g})"

    def b(self, z):
        """The disc automorphism (z - r)/(1 - r z)."""
        return (z - self.r) / (1.0 - self.r * z)

    def eval(self, z: complex) -> BallPoint:
        z = complex(z)
        return BallPoint(np.array([z * z, self.b(z) ** 2]) / math.sqrt(2.0))

    def deriv(self, z: complex) -> np.ndarray:
        z, r = complex(z), self.r
        bp = (1.0 - r * r) / (1.0 - r * z) ** 2
        return np.array([2.0 * z, 2.0 * self.b(z) * bp]) / math.sqrt(2.0)

    def inner(self, z1, z2):
        w2 = np.conj(z2)
        return (z1 * z1 * w2 * w2 + self.b(z1) ** 2 * np.conj(self.b(z2)) ** 2) / 2.0


def crossing_map(r: float) -> CrossingCurve:
    """The crossing curve for the automorphism parameter r in (0, 1)."""
    return CrossingCurve(r)


def transversality_pairing(curve: GeneralCurve, t: float) -> float:
    """Re <f(z), f'(z) z> at z = e^{it}; positive for C^1 proper embeddings.

    Raises :class:`BoundaryDivergenceError` (via the curve) when the
    derivative series diverges at the boundary, the tangential signature.
    """
    z = complex(np.exp(1j * t))
    tangent = curve.deriv(z) * z  # first: a divergent derivative decides before eval
    value = complex(np.dot(curve.eval(z).coords, np.conj(tangent)))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise BoundaryDivergenceError("pairing is non-finite at this boundary point")
    return value.real


def crossing_scalar(curve: GeneralCurve) -> float:
    """Positive scalar s with <f'(1), f(1)> = -s <f'(-1), f(-1)>.

    Computed from the two boundary pairings rather than hard-coded, so the
    construction stays parametric in the automorphism parameter.
    """
    pair_pos = complex(np.dot(curve.deriv(1.0), np.conj(curve.eval(1.0).coords))).real
    pair_neg = complex(np.dot(curve.deriv(-1.0), np.conj(curve.eval(-1.0).coords))).real
    if pair_neg >= 0.0:
        raise ValueError("curve does not cross: <f'(-1), f(-1)> is not negative")
    return pair_pos / (-pair_neg)


def tangential_ratio(curve: GeneralCurve, x, t=0.0):
    """The two boundary-approach ratios along the ray x e^{it}, x in (0, 1).

    ratio1 = (1 - ||f(x e^{it})||) / ||f(e^{it}) - f(x e^{it})|| in (0, 1];
    ratio2 = Re <f(e^{it}) - f(x e^{it}), f(e^{it})> / (1 - x).

    The two formulations are inequivalent in general and are never merged;
    both are reported.
    """
    if not np.all((0.0 < x) & (x < 1.0)):
        raise ValueError("x must lie strictly between 0 and 1")
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


def image_distance(curve: GeneralCurve, lam, mu):
    """d(f(lambda), f(mu)) through the curve's inner products.

    Same cancellation-free rearrangement as :func:`pseudo_dist`, expressed
    in the three inner products <f(l), f(l)>, <f(m), f(m)>, <f(l), f(m)>.
    """
    ipll = curve.inner(lam, lam).real
    ipmm = curve.inner(mu, mu).real
    iplm = curve.inner(lam, mu)
    num = ipll + ipmm - 2.0 * iplm.real + np.abs(iplm) ** 2 - ipll * ipmm
    den = np.abs(1.0 - iplm) ** 2
    return np.sqrt(np.clip(num / den, 0.0, 1.0))


def distortion_profile(curve: GeneralCurve, pairs) -> DistortionProfile:
    """d(lambda, mu) against d(f(lambda), f(mu)) for each disc pair.

    Raises ValueError unless every source point lies in the open unit disc.
    """
    pts = np.asarray(pairs, dtype=complex).reshape(-1, 2)
    outside = pts[~(np.abs(pts) < 1.0)]  # row-major: pair order
    if outside.size:
        raise ValueError(f"source point {complex(outside[0])!r} lies outside the open unit disc")
    d_src, d_img = pseudo_dist_scalar(*pts.T), image_distance(curve, *pts.T)
    ratios = d_img[d_src > 0.0] / d_src[d_src > 0.0]
    if not ratios.size:
        raise ValueError("no pair with distinct source points")
    return DistortionProfile(np.column_stack([d_src, d_img]), ratios.min(), ratios.max())


def hs_embedding(s: float, n_terms: int) -> EmbeddedDisc:
    """Embedded disc of the power-weight family, amplitudes by inversion."""
    from . import kernels

    return EmbeddedDisc.from_kernel_handle(kernels.hs(s, n_terms))


def hardy_embedding() -> EmbeddedDisc:
    """The coordinate embedding z -> (z): the identity curve into the ball."""
    return EmbeddedDisc([1.0], "open", boundary_c1=True)
