"""Continuous proper embedding of the disc into the two-ball that meets the
sphere tangentially.

The first coordinate is built from a closed-form conformal chain: a Mobius
map onto the upper half plane, the principal square root onto the first
quadrant, a Mobius map onto the upper half disc (this composite is ``g``),
the principal logarithm onto a half strip, and a final Mobius map into the
disc (the composite is ``f``), clipped away from the boundary singularity
by rho(z) = r z + 1 - r.  The second coordinate restores the sphere
identity |f_1|^2 + |f_2|^2 = 1 on the circle: its boundary modulus is
exp(u_1) with u_1 = log sqrt(1 - |f_1|^2), its phase the discrete harmonic
conjugate of u_1, and its interior values come from the truncated analytic
Fourier series of u_1 + i conj(u_1).

The map is read through its coordinates f_1 and f_2, so the layer needs no
ball-point type from :mod:`~npdisclab.geometry`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import DomainError

_POLE_TOL = 1e-8

#: midpoints this close to the singular angle are left out of the midpoint
#: sphere defect
_MIDPOINT_EXCLUDE = 0.05

#: dyadic exponents j whose points enter tangency_report's c1 fit
_FIT_J = range(6, 15)

#: dyadic exponents j with x = 1 - 2^-j in (0, 1): 2^-54 is lost in 1 - 2^-54
_J_RANGE = range(1, 54)


def _upper_sqrt(w: np.ndarray) -> np.ndarray:
    """Principal square root with negative reals resolved from above.

    Boundary images of the first Mobius map land on the real axis; the
    upper-half-plane limit is the consistent branch there.
    """
    w = np.asarray(w, dtype=complex)
    neg = (w.imag == 0.0) & (w.real < 0.0)
    out = np.sqrt(np.where(neg, 1.0, w))
    return np.where(neg, 1j * np.sqrt(np.abs(w.real)), out)


def _upper_log(w: np.ndarray) -> np.ndarray:
    """Principal logarithm with negative reals resolved from above."""
    w = np.asarray(w, dtype=complex)
    neg = (w.imag == 0.0) & (w.real < 0.0)
    out = np.log(np.where(neg, 1.0, w))
    return np.where(neg, np.log(np.abs(np.where(neg, w.real, 1.0))) + 1j * math.pi, out)


class ConformalChain:
    """The staged conformal composition with clip parameter r in (2/3, 1)."""

    def __init__(self, clip: float):
        if not 2.0 / 3.0 < clip < 1.0:
            raise DomainError("clip parameter must lie in (2/3, 1)")
        self.clip = clip

    def rho(self, z):
        return self.clip * np.asarray(z, dtype=complex) + (1.0 - self.clip)

    def eval(self, z) -> np.ndarray:
        """The clipped chain f(rho(z)) on a scalar or an array."""
        z = np.asarray(z, dtype=complex)
        out = self._f(self.rho(np.atleast_1d(z)))
        return out[0] if z.ndim == 0 else out

    def _g(self, z: np.ndarray) -> np.ndarray:
        """g on the closed disc: Mobius map, square root, Mobius map."""
        if np.any(np.abs(z - 1j) < _POLE_TOL):
            raise DomainError(
                "evaluation within 1e-8 of the chain's pole at +i"
            )
        w = _upper_sqrt((z + 1j) / (1j * z + 1.0))
        return (w - 1.0) / (w + 1.0)

    def _f(self, z: np.ndarray) -> np.ndarray:
        """f on the closed disc; the boundary singularity z = 1 maps to 1."""
        g = self._g(z)
        out = np.empty_like(g)
        sing = g == 0.0
        out[sing] = 1.0
        if np.any(~sing):
            lg = _upper_log(g[~sing])
            out[~sing] = (lg - 1j * math.pi) / (lg + 2j * math.pi)
        return out


def _require_grid(m: int, minimum: int = 256) -> None:
    if m < minimum or m & (m - 1) != 0:
        raise DomainError(f"grid size must be a power of two >= {minimum}, got {m}")


def _conjugate_spectrum(spec: np.ndarray, m: int) -> np.ndarray:
    """Inverse real FFT of ``spec`` times -i sign(k), zero and Nyquist bins cleared."""
    spec = spec * -1j
    spec[0] = 0.0
    if m % 2 == 0:
        spec[-1] = 0.0
    return np.fft.irfft(spec, n=m)


def harmonic_conjugate(values) -> np.ndarray:
    """Discrete harmonic conjugate by the Fourier multiplier -i sign(k).

    Zero mean is preserved (the k = 0 coefficient maps to zero) and the
    Nyquist bin is annihilated; the transform is exact on trigonometric
    polynomials below the Nyquist frequency.
    """
    values = np.asarray(values, dtype=float)
    return _conjugate_spectrum(np.fft.rfft(values), values.size)


class TangentialEmbedding:
    """The assembled proper map F = (f_1, f_2) of the disc into the two-ball.

    Boundary data lives on the construction grid as float arrays ``angles``,
    ``u1`` and ``u1_tilde`` and complex arrays ``f1_boundary`` and
    ``f2_boundary``, with u1[0] the model value at the singular angle 0;
    interior values of f_2 come from exponentiating the truncated analytic
    completion h(z) = c_0 + 2 sum_{0<k<m/2} c_k z^k of u_1.  F(1) = (1, 0) at
    the singular point: f_1(1) = 1 exactly, but the truncated f_2 does not
    vanish there.
    """

    def __init__(self, chain: ConformalChain, m: int):
        _require_grid(m)
        self.chain = chain
        self.m = m
        self.angles = 2.0 * math.pi * np.arange(m) / m
        self.f1_boundary = chain.eval(np.exp(1j * self.angles))
        # u_1 = log sqrt(1 - |f_1|^2); at the singular angle its true value
        # is -inf, so the sample there is the model u = A - log log (1/|t|)
        # fitted on the two neighbours and evaluated at half the grid spacing
        with np.errstate(divide="ignore", invalid="ignore"):
            u1 = 0.5 * np.log1p(-np.abs(self.f1_boundary) ** 2)
        t1 = self.angles[1]
        fit = 0.5 * (u1[1] + u1[-1]) + math.log(math.log(1.0 / t1))
        u1[0] = fit - math.log(math.log(2.0 / t1))
        self.u1 = u1
        spec = np.fft.rfft(u1)
        self.u1_tilde = _conjugate_spectrum(spec, m)
        spec /= m
        coeffs = 2.0 * spec[:-1]
        coeffs[0] = spec[0].real
        self._h_coeffs = coeffs
        self.f2_boundary = np.exp(u1 + 1j * self.u1_tilde)

    def h(self, z: complex) -> complex:
        """Truncated analytic completion of u_1 at |z| <= 1."""
        powers = np.cumprod(np.full(self._h_coeffs.size - 1, complex(z)))
        return complex(self._h_coeffs[0] + np.dot(self._h_coeffs[1:], powers))

    def f2(self, z: complex) -> complex:
        return np.exp(self.h(z))

    def f1(self, z: complex) -> complex:
        return complex(self.chain.eval(complex(z)))

    def sphere_defect(self) -> np.ndarray:
        """|f_1|^2 + |f_2|^2 - 1 on the construction grid."""
        return np.abs(self.f1_boundary) ** 2 + np.abs(self.f2_boundary) ** 2 - 1.0

    def _h_at_midpoints(self) -> np.ndarray:
        """h at the m grid midpoints e^{i(theta_j + pi/m)}, by one inverse FFT.

        There h = sum_k c_k e^{i pi k/m} e^{2 pi i j k/m}, which is m times the
        length-m inverse DFT of the twisted coefficients.
        """
        k = np.arange(self._h_coeffs.size)
        twisted = self._h_coeffs * np.exp(1j * math.pi * k / self.m)
        return self.m * np.fft.ifft(twisted, n=self.m)

    def midpoint_sphere_defect(self) -> float:
        """Max sphere defect at grid midpoints, away from the singular angle.

        Midpoints are off the construction grid, so this measures the true
        convergence of the truncated Fourier representation; it shrinks as
        the grid is refined.  Midpoints within _MIDPOINT_EXCLUDE of the
        singular angle 0 are skipped.
        """
        mids = self.angles + math.pi / self.m
        keep = (mids > _MIDPOINT_EXCLUDE) & (mids < 2.0 * math.pi - _MIDPOINT_EXCLUDE)
        f1 = self.chain.eval(np.exp(1j * mids[keep]))
        f2 = np.exp(self._h_at_midpoints()[keep])
        return float(np.max(np.abs(np.abs(f1) ** 2 + np.abs(f2) ** 2 - 1.0)))


class TangencyReport(NamedTuple):
    """Both boundary-approach ratios along x = 1 - 2^-j plus the model fit.

    ``c1`` and ``correlation`` come from the log-log regression of
    Re <F(1) - F(x), F(1)> against 1/log^2(1 - x) over j = 6..14; the
    constant is fitted, never asserted.
    """

    rows: list[tuple[float, float, float]]  # (x, ratio1, ratio2)
    c1: float
    correlation: float
    ratio1_decreasing: bool
    ratio2_increasing: bool


def tangency_report(emb: TangentialEmbedding, j_min: int, j_max: int) -> TangencyReport:
    """Evaluate the two tangency ratios along the dyadic approach to 1.

    F(1) = (1, 0), so ratio2 reduces to Re(1 - f_1(x))/(1 - x) and only the
    closed-form coordinate enters it; ratio1 needs f_2 through the Fourier
    representation, which must resolve the smallest 1 - x in the sweep
    (grid size around 2^{j_max + 4} is comfortable).  The c1 fit takes the
    j in 6..14; a sweep holding fewer than two of them raises DomainError,
    as does one reaching outside 1 <= j <= 53, where x = 1 - 2^-j lies in (0, 1).
    """
    if j_min < _J_RANGE.start or j_max >= _J_RANGE.stop:
        raise DomainError(
            f"jmin={j_min}, jmax={j_max} reach outside {_J_RANGE.start}..{_J_RANGE.stop - 1}, "
            f"the exponents j with x = 1 - 2^-j in (0, 1)"
        )
    if len(range(max(j_min, _FIT_J.start), min(j_max + 1, _FIT_J.stop))) < 2:
        raise DomainError(
            f"jmin={j_min}, jmax={j_max} leave fewer than two exponents in the "
            f"c1 fit window {_FIT_J.start}..{_FIT_J.stop - 1}"
        )
    rows = []
    fit_x, fit_y = [], []
    for j in range(j_min, j_max + 1):
        one_minus_x = 2.0**-j
        x = 1.0 - one_minus_x
        f1x = emb.f1(x)
        f2x = emb.f2(x)
        norm_sq = abs(f1x) ** 2 + abs(f2x) ** 2
        num = (1.0 - norm_sq) / (1.0 + math.sqrt(norm_sq))
        den = math.sqrt(abs(1.0 - f1x) ** 2 + abs(f2x) ** 2)
        ratio1 = num / den
        y = (1.0 - f1x).real
        ratio2 = y / one_minus_x
        rows.append((x, ratio1, ratio2))
        if j in _FIT_J:
            fit_x.append(1.0 / math.log(one_minus_x) ** 2)
            fit_y.append(y)
    lx, ly = np.log(fit_x), np.log(fit_y)
    slope, intercept = np.polyfit(lx, ly, 1)
    corr = float(np.corrcoef(lx, ly)[0, 1])
    r1 = [r[1] for r in rows]
    r2 = [r[2] for r in rows]
    return TangencyReport(
        rows=rows,
        c1=float(np.exp(intercept)),
        correlation=corr,
        ratio1_decreasing=all(b < a for a, b in zip(r1, r1[1:])),
        ratio2_increasing=all(b > a for a, b in zip(r2, r2[1:])),
    )
