"""Pseudohyperbolic geometry of the complex ball and embedded-disc curves.

The distance between interior points z, w is

    d(z, w)^2 = 1 - (1 - |w|^2)(1 - |z|^2) / |1 - <w, z>|^2 = |phi_w(z)|^2,

where phi_w is the ball automorphism swapping w and 0.  Points very close
to the boundary lose all their information in plain coordinates, so a point
may carry its boundary gap 1 - |z| exactly.

:class:`PointTable` is the one owner of 1 - <z_i, z_j>, the quantity behind
every kernel entry and distance: it stacks the points' coordinates once and
forms 1 - <z_i, z_j> over broadcast index arrays, through the exact gap
algebra 1 - z*w = g_z + g_w - g_z*g_w wherever both points are radial and
real, so pairs far below double-precision resolution stay cancellation-free.
The Pick layer, the two-point :func:`one_minus_inner` and
:func:`radial_gap_dist` all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: interior points must keep this much distance from the sphere unless a gap
#: is carried exactly
_INTERIOR_EPS = 1e-15


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
        below machine epsilon; all other pairs use the coordinates.
        """
        omt = 1.0 - np.sum(self.coords[rows] * np.conj(self.coords[cols]), axis=-1)
        gi, gj = self.gaps[rows], self.gaps[cols]
        return np.where(np.isnan(gi + gj), omt, gi + gj - gi * gj)


def ball_inner(p: BallPoint, q: BallPoint) -> complex:
    """<p, q> = sum p_i conj(q_i), shorter vector zero-padded."""
    a, b = PointTable([p, q]).coords
    return complex(np.dot(a, np.conj(b)))


def one_minus_inner(p: BallPoint, q: BallPoint) -> complex:
    """1 - <p, q>: the two-point call of :meth:`PointTable.one_minus_inner`."""
    return complex(PointTable([p, q]).one_minus_inner(0, 1))


def pseudo_dist(p: BallPoint, q: BallPoint) -> float:
    """Pseudohyperbolic distance between interior points, in [0, 1).

    Uses the rearrangement

        d^2 = (||z - w||^2 - (||z||^2 ||w||^2 - |<z, w>|^2)) / |1 - <w, z>|^2,

    which is free of the 1 - (nearly 1) cancellation: it is exactly zero at
    coincident points and stays relatively accurate for close ones.
    """
    if not (p.is_interior and q.is_interior):
        raise BoundaryPointError("distance formula degenerates at the boundary")
    denom = abs(one_minus_inner(q, p)) ** 2
    if p.is_radial_real and q.is_radial_real:
        num = (p.gap - q.gap) ** 2  # collinear points: the Gram defect vanishes
    else:
        a, b = PointTable([p, q]).coords
        diff_sq = float(np.sum(np.abs(a - b) ** 2))
        # all three through the same dot-product path, so the defect is an
        # exact zero for identical coordinate arrays
        nz_sq = complex(np.dot(a, np.conj(a))).real
        nw_sq = complex(np.dot(b, np.conj(b))).real
        ip = complex(np.dot(a, np.conj(b)))
        num = diff_sq - (nz_sq * nw_sq - abs(ip) ** 2)
    dsq = num / denom
    return math.sqrt(min(max(dsq, 0.0), 1.0))


def pseudo_dist_scalar(z: complex, w: complex) -> float:
    """|z - w| / |1 - z conj(w)| for scalar disc points."""
    z, w = complex(z), complex(w)
    return abs(z - w) / abs(1.0 - z * np.conj(w))


def radial_gap_dist(gap_a: float, gap_b: float) -> float:
    """Distance between the real points 1 - gap_a and 1 - gap_b.

    Cancellation-free: the difference is formed from the gaps directly and
    1 - zw through the gap algebra of :class:`PointTable`.
    """
    num = abs(gap_a - gap_b)
    return num / one_minus_inner(BallPoint.radial(gap_a), BallPoint.radial(gap_b)).real


def radial_log_gap_dist(log_gap_a: float, log_gap_b: float) -> float:
    """Same as :func:`radial_gap_dist` with gaps given by their logarithms.

    Handles gaps far below the double-precision underflow threshold; only
    the gap ratio and the larger gap enter the formula.
    """
    lo, hi = sorted((log_gap_a, log_gap_b))
    delta = lo - hi  # log of the small/large gap ratio, <= 0
    small_over_large = math.exp(delta)
    large = math.exp(hi) if hi > -700 else 0.0
    return -math.expm1(delta) / (1.0 + small_over_large - large * small_over_large)


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


@dataclass
class EmbeddingValue:
    """Evaluation of an embedded disc: the point, the derivative vector and
    a heuristic bound on the discarded truncation tail."""

    point: BallPoint
    deriv: np.ndarray | None
    tail_estimate: float


class EmbeddedDisc:
    """Diagonal embedding f(z) = (b_1 z, b_2 z^2, ...) truncated at order N.

    ``regime`` is "open" when the full amplitude mass is 1 (image closure
    touches the sphere) and "compact" when it is r < 1.  ``gram`` may hold
    an exact evaluator for g(t) = sum |b_n|^2 t^n, in which case inner
    products bypass the truncated coordinates entirely.
    """

    def __init__(self, amplitudes, regime: str | None = None, *,
                 gram=None, boundary_c1: bool = False):
        b = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
        if b.size == 0 or b[0] == 0.0:
            raise ValueError("first amplitude must be nonzero")
        mass = float(np.sum(np.abs(b) ** 2))
        if mass > 1.0 + 1e-9:
            raise ValueError(f"amplitude mass {mass:.6g} exceeds 1")
        if regime is None:
            regime = "open" if mass > 1.0 - 1e-6 else "compact"
        if regime not in ("open", "compact"):
            raise ValueError(f"unknown regime {regime!r}")
        self.amplitudes = b
        self.regime = regime
        self.gram = gram
        self.boundary_c1 = boundary_c1

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

    def inner(self, z1: complex, z2: complex) -> complex:
        """<f(z1), f(z2)> = g(z1 conj(z2))."""
        t = complex(z1) * np.conj(complex(z2))
        if self.gram is not None:
            return complex(self.gram(t))
        c = np.abs(self.amplitudes) ** 2
        return complex(np.dot(c, t ** np.arange(1, self.n + 1)))

    def eval(self, z: complex) -> BallPoint:
        z = complex(z)
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

    def as_curve(self) -> "GeneralCurve":
        return GeneralCurve(self.eval, self.deriv, inner_fn=self.inner,
                            label=f"embedded-disc(n={self.n})")


def disc_embed_eval(e: EmbeddedDisc, z: complex, want_deriv: bool = True) -> EmbeddingValue:
    """Point and derivative of the embedding, plus a truncation-tail estimate.

    The tail estimate majorizes sum_{n>N} |b_n z^n| by a geometric series
    led by the last retained term; it is a heuristic for generic amplitudes
    and exact only when |b_n| is nonincreasing.
    """
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise ValueError("embedding evaluated outside the closed disc")
    point = e.eval(z)
    deriv = e.deriv(z) if want_deriv else None
    r = abs(z)
    last = abs(e.amplitudes[-1]) * r ** e.n
    tail = last * r / (1.0 - r) if r < 1.0 else math.inf if last > 0 else 0.0
    return EmbeddingValue(point, deriv, tail)


class GeneralCurve:
    """Analytic curve into the ball given by callables.

    ``deriv_fn`` defaults to central differences with one Richardson step
    (step 1e-6); closed-form derivatives should be supplied whenever they
    exist, the numeric path is a cross-check.  ``inner_fn(z1, z2)`` may give
    exact inner products of curve values.
    """

    def __init__(self, eval_fn, deriv_fn=None, inner_fn=None, label: str = "curve"):
        self._eval = eval_fn
        self._deriv = deriv_fn
        self._inner = inner_fn
        self.label = label

    def eval(self, z: complex) -> BallPoint:
        out = self._eval(complex(z))
        return out if isinstance(out, BallPoint) else BallPoint(out)

    def deriv(self, z: complex) -> np.ndarray:
        if self._deriv is not None:
            return np.atleast_1d(np.asarray(self._deriv(complex(z)), dtype=complex))
        return self._fd_deriv(complex(z))

    def _fd_deriv(self, z: complex, h: float = 1e-6) -> np.ndarray:
        def central(step):
            a = self.eval(z + step).coords
            b = self.eval(z - step).coords
            return (a - b) / (2.0 * step)

        d1 = central(h)
        d2 = central(h / 2.0)
        return (4.0 * d2 - d1) / 3.0

    def inner(self, z1: complex, z2: complex) -> complex:
        if self._inner is not None:
            return complex(self._inner(complex(z1), complex(z2)))
        return ball_inner(self.eval(z1), self.eval(z2))


def crossing_map(r: float) -> GeneralCurve:
    """The rational curve (z^2, b(z)^2)/sqrt(2) with b a disc automorphism.

    Proper into the two-ball, injective except f(-1) = f(1): the image
    boundary crosses itself at that point.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("automorphism parameter must lie in (0, 1)")
    s2 = math.sqrt(2.0)

    def b(z):
        return (z - r) / (1.0 - r * z)

    def bp(z):
        return (1.0 - r * r) / (1.0 - r * z) ** 2

    def ev(z):
        return BallPoint(np.array([z * z, b(z) ** 2]) / s2)

    def dv(z):
        return np.array([2.0 * z, 2.0 * b(z) * bp(z)]) / s2

    def ip(z1, z2):
        w2 = np.conj(z2)
        return (z1 * z1 * w2 * w2 + b(z1) ** 2 * np.conj(b(z2)) ** 2) / 2.0

    return GeneralCurve(ev, dv, inner_fn=ip, label=f"crossing(r={r:g})")


def boundary_pairing(curve: GeneralCurve, t: float) -> complex:
    """<f(z), f'(z) z> at the boundary point z = e^{it}."""
    z = complex(np.exp(1j * t))
    p = curve.eval(z).coords
    d = curve.deriv(z)
    m = min(p.size, d.size)
    return complex(np.dot(p[:m], np.conj(d[:m] * z)))


def transversality_pairing(curve: GeneralCurve, t: float) -> float:
    """Re <f(e^{it}), f'(e^{it}) e^{it}>; positive for C^1 proper embeddings.

    Raises :class:`BoundaryDivergenceError` (via the curve) when the
    derivative series diverges at the boundary, the tangential signature.
    """
    value = boundary_pairing(curve, t)
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


def tangential_ratio(curve: GeneralCurve, x: float, t: float = 0.0) -> tuple[float, float]:
    """The two boundary-approach ratios along the ray x e^{it}, x in (0, 1).

    ratio1 = (1 - ||f(x e^{it})||) / ||f(e^{it}) - f(x e^{it})|| in (0, 1];
    ratio2 = Re <f(e^{it}) - f(x e^{it}), f(e^{it})> / (1 - x).

    The two formulations are inequivalent in general and are never merged;
    both are reported.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie strictly between 0 and 1")
    e = complex(np.exp(1j * t))
    xe = x * e
    ip_bb = curve.inner(e, e)
    ip_xx = curve.inner(xe, xe)
    ip_xb = curve.inner(xe, e)
    nx_sq = ip_xx.real
    # 1 - sqrt(q) = (1 - q)/(1 + sqrt(q)) avoids cancellation near the sphere
    num = (1.0 - nx_sq) / (1.0 + math.sqrt(max(nx_sq, 0.0)))
    diff_sq = (ip_bb - 2.0 * ip_xb.real + ip_xx).real
    ratio1 = num / math.sqrt(max(diff_sq, 0.0))
    ratio2 = (ip_bb - ip_xb).real / (1.0 - x)
    return ratio1, ratio2


@dataclass
class DistortionProfile:
    """Pseudohyperbolic distances before and after a disc-to-ball map."""

    rows: list[tuple[float, float]]  # (d_source, d_image) per pair
    ratio_min: float
    ratio_max: float


def image_distance(curve: GeneralCurve, lam: complex, mu: complex) -> float:
    """d(f(lambda), f(mu)) through the curve's inner products.

    Same cancellation-free rearrangement as :func:`pseudo_dist`, expressed
    in the three inner products <f(l), f(l)>, <f(m), f(m)>, <f(l), f(m)>.
    """
    ipll = curve.inner(lam, lam).real
    ipmm = curve.inner(mu, mu).real
    iplm = curve.inner(lam, mu)
    num = ipll + ipmm - 2.0 * iplm.real + abs(iplm) ** 2 - ipll * ipmm
    den = abs(1.0 - iplm) ** 2
    return math.sqrt(min(max(num / den, 0.0), 1.0))


def distortion_profile(curve: GeneralCurve, pairs) -> DistortionProfile:
    """d(lambda, mu) against d(f(lambda), f(mu)) for each disc pair."""
    rows = []
    ratios = []
    for lam, mu in pairs:
        d_src = pseudo_dist_scalar(lam, mu)
        d_img = image_distance(curve, lam, mu)
        rows.append((d_src, d_img))
        if d_src > 0.0:
            ratios.append(d_img / d_src)
    if not ratios:
        raise ValueError("no pair with distinct source points")
    return DistortionProfile(rows, min(ratios), max(ratios))


def hs_embedding(s: float, n_terms: int = 2048) -> EmbeddedDisc:
    """Embedded disc of the power-weight family, amplitudes by inversion."""
    from . import kernels

    return EmbeddedDisc.from_kernel_handle(kernels.hs(s, n_terms))


def hardy_embedding() -> EmbeddedDisc:
    """The coordinate embedding z -> (z): the identity curve into the ball."""
    disc = EmbeddedDisc([1.0], "open", gram=lambda t: complex(t), boundary_c1=True)
    return disc
