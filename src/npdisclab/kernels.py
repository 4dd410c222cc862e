"""Kernel families and isomorphism diagnostics for embedded-disc algebras.

A kernel handle pairs a weight sequence (a_n) with its embedding moduli
(c_n) so that K(z, w) = sum a_n (z conj(w))^n = 1/(1 - sum c_n (z conj(w))^n).
On top of the handle sit the classification quantities: the renewal mean
mu = sum n c_n, the tail limit of a_n (which equals 1/mu by the
Erdos-Feller-Pollard theorem), the quotient-boundedness witness
sup a_n/a_{n-1}, the strict-cyclicity supremum, the complete-Pick flag and
the compact-image flag.  All finite-truncation verdicts are heuristics and
are labelled as such.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .series import (
    CNP_TOL,
    CoefficientSequence,
    InvalidSequenceError,
    KernelWeights,
    _FFT_N,
    fft_convolve,
    moduli_from_weights,
    power_sum,
    settled,
    weights_from_moduli,
)

#: relative drift of the weight ratio over the last quarter below which two
#: sequences are reported comparable
COMPARABLE_DRIFT = 0.05


#: first and largest chunk of terms summed by :func:`_hs_generating`
_HS_CHUNK_MIN = 256
_HS_CHUNK_MAX = 65536
#: most terms :func:`_hs_generating` holds in one temporary array
_HS_BLOCK = 32768
#: :func:`_hs_generating` stops after about this many terms
_HS_TERM_CAP = 5e7


class KernelDomainError(ValueError):
    """Evaluation requested outside the kernel's admissible region."""


class KernelHandle:
    """Consistent (weights, moduli) pair with a family tag.

    Construct via the family helpers :func:`hardy`, :func:`hs`,
    :func:`geometric`, :func:`from_moduli`, :func:`from_weights` or
    :func:`parse_family`; the constructor only stores its fields.  Hardy
    and geometric weights are closed forms and :func:`from_moduli` weights
    come from the renewal recursion itself; moduli inverted from weights
    (:func:`hs`, :func:`from_weights`) are checked against those weights by
    their residual in :func:`_verified_moduli`.
    """

    def __init__(self, weights: KernelWeights, moduli: CoefficientSequence,
                 family_tag: str, *, s: float | None = None, q: float | None = None):
        self.weights = weights
        self.moduli = moduli
        self.family_tag = family_tag
        self._s = s
        self._q = q

    @property
    def n(self) -> int:
        return self.weights.n

    # -- regime ------------------------------------------------------------

    def is_compact_regime(self) -> bool:
        """Doubling test for convergence of sum a_n (finite iff sum c_n < 1)."""
        av = self.weights.values
        return settled(float(av.sum()), float(av[: av.size // 2].sum()))

    def renewal_mean(self) -> float:
        """mu = sum n c_n, or inf when the doubling test finds it diverging or drifting."""
        ncn = self.moduli.values * np.arange(1, self.moduli.n + 1)
        full = float(ncn.sum())
        return full if settled(full, float(ncn[: ncn.size // 2].sum())) else math.inf

    def moduli_mass(self) -> float:
        """Truncated sum of the moduli (r^2 in the compact regime)."""
        return float(self.moduli.values.sum())

    # -- pointwise evaluation ----------------------------------------------

    def generating_value(self, t: complex | np.ndarray) -> complex | np.ndarray:
        """g(t) = sum c_n t^n, by family closed form where one exists.

        A scalar ``t`` runs as a one-element array, so it gets an array element's bits.
        """
        t = np.asarray(t, dtype=complex)
        flat = t.reshape(-1)
        if self.family_tag == "hardy":
            g = flat
        elif self._q is not None:
            g = self._q * flat / (1.0 - self._q * flat)
        elif self._s is not None:
            g = 1.0 - 1.0 / _hs_generating(self._s, flat)  # A_s = inf gives 1
        else:
            g = flat * power_sum(self.moduli.values, flat)
        return g.reshape(t.shape) if t.ndim else complex(g[0])

    def kernel_from_defect(self, omt: complex | np.ndarray) -> complex | np.ndarray:
        """K expressed through 1 - t, the kernel-entry call of every family.

        Near the boundary 1 - t is the well-conditioned datum.  ``omt`` may
        be a scalar or an array, real or complex.  Hardy (1/(1 - t), on ball
        points the Drury-Arveson kernel) and geometric take their closed
        forms, the other families :meth:`kernel_value` at t = 1 - omt.
        """
        if self.family_tag == "hardy":
            return 1.0 / omt
        if self._q is not None:
            q = self._q
            return (1.0 - q + q * omt) / (1.0 - 2.0 * q + 2.0 * q * omt)
        return self.kernel_value(1.0 - omt)

    def kernel_value(self, t: complex | np.ndarray) -> complex | np.ndarray:
        """Truncated K = sum a_n t^n: :func:`~npdisclab.series.power_sum` on the weights."""
        acc = power_sum(self.weights.values, t)
        return acc if acc.ndim else complex(acc)


def _hs_generating(s: float, t) -> np.ndarray:
    """A_s(t) = sum (n+1)^s t^n by partial sums over doubling chunks, |t| <= 1.

    Over a 1-d array of t (a scalar is one element), ``_HS_BLOCK`` terms
    at a time.  Chunks start at ``_HS_CHUNK_MIN`` terms and double up to
    ``_HS_CHUNK_MAX``; each sum stops once its last term times the chunk
    length falls below 1e-17 of its running total.  For |t| < 1 the error
    is then at most 1e-14 * A_s(|t|), an absolute bound scaled by the sum
    of the term magnitudes: close to the circle it is set by cancellation
    between terms, not by truncation.  On the circle |t| = 1 the sum is
    only taken when s < -1 (absolutely summable), and it is truncated
    silently after ``_HS_TERM_CAP`` terms (ROADMAP 1(c)).  For s >= -1,
    A_s(1) = inf and every other point within 1e-12 of the circle raises
    KernelDomainError: there the series does not converge absolutely.
    """
    t = np.atleast_1d(np.asarray(t, dtype=complex))
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise KernelDomainError("generating function evaluated outside the closed disc")
    if s >= -1.0 and np.any((np.abs(t) > 1.0 - 1e-12) & (t != 1.0)):
        raise KernelDomainError(f"hs:{s:g} series is not absolutely summable on the unit circle")
    total = np.where((t == 1.0) & (s >= -1.0), complex(math.inf), 0j)
    live = np.flatnonzero(np.isfinite(total))
    chunk, n0 = _HS_CHUNK_MIN, 0
    while live.size and n0 <= _HS_TERM_CAP:
        n = np.arange(n0, n0 + chunk)
        a = (n + 1.0) ** s
        rows, going = max(_HS_BLOCK // chunk, 1), []
        for start in range(0, live.size, rows):
            idx = live[start:start + rows]
            terms = a * t[idx, None] ** n
            total[idx] += terms.sum(axis=1)
            going.append(np.abs(terms[:, -1]) * chunk
                         >= 1e-17 * np.maximum(np.abs(total[idx]), 1e-300))
        live = live[np.concatenate(going)]
        n0 += chunk
        chunk = min(2 * chunk, _HS_CHUNK_MAX)
    return total


# -- family constructors ----------------------------------------------------


def hardy(n_terms: int) -> KernelHandle:
    """Szego kernel: c = (1, 0, 0, ...), a_n = 1."""
    if n_terms < 1:
        raise ValueError(f"hardy needs at least one term, got N={n_terms}")
    c = np.zeros(n_terms)
    c[0] = 1.0
    return KernelHandle(
        KernelWeights(np.ones(n_terms + 1)),
        CoefficientSequence(c),
        "hardy",
    )


def hs(s: float, n_terms: int) -> KernelHandle:
    """Power-weight family a_n = (n+1)^s; moduli derived by inversion.

    Weights that overflow are rejected by :class:`KernelWeights`.
    """
    with np.errstate(over="ignore"):
        a = KernelWeights((np.arange(n_terms + 1) + 1.0) ** float(s))
    return KernelHandle(a, _verified_moduli(a), f"hs:{s:g}", s=float(s))


def geometric(q: float, n_terms: int) -> KernelHandle:
    """Geometric moduli c_n = q^n; requires 0 < q <= 1/2 so mass stays <= 1.

    The weights need no recursion: 1/(1 - qz/(1 - qz)) = 1 + qz/(1 - 2qz),
    so a_0 = 1 and a_n = q (2q)^(n-1), computed as (2q)^n / 2 where both the
    doubling and the halving are exact.  For q < 1/2 the weights underflow
    to 0 past n of about 1074 / log2(1/(2q)), which :class:`KernelWeights`
    rejects.
    """
    if not 0.0 < q <= 0.5:
        raise ValueError("geometric ratio must lie in (0, 1/2]")
    c = CoefficientSequence(q ** np.arange(1, n_terms + 1))
    a = KernelWeights(np.concatenate(([1.0], 0.5 * (2.0 * q) ** np.arange(1, n_terms + 1))))
    return KernelHandle(a, c, f"geom:{q:g}", q=float(q))


def from_moduli(c: CoefficientSequence, n_terms: int) -> KernelHandle:
    """Custom handle of the moduli c_1..c_{n_terms}, zero-padded or truncated."""
    cp = CoefficientSequence(c.padded(n_terms), validate=False)
    return KernelHandle(weights_from_moduli(c, n_terms), cp, "custom")


def from_weights(a: KernelWeights) -> KernelHandle:
    """Custom handle of the weights a_0..a_N and their inverted moduli."""
    return KernelHandle(a, _verified_moduli(a), "custom")


def _verified_moduli(a: KernelWeights) -> CoefficientSequence:
    """Invert ``a`` and check the moduli by the residual of the renewal identity.

    The residual is r = a - delta_0 - (0, c) * a.  Above ``_FFT_N`` terms,
    where :func:`moduli_from_weights` runs the FFT/Newton reciprocal, it is
    one :func:`fft_convolve` call; up to ``_FFT_N``, where the inversion is
    the O(N^2) recursion anyway, the sums are direct.  Each check raises
    InvalidSequenceError:

    - consistency: |r_n| <= 1e-10 max(|a_n|, 1) for every n;
    - certification, Newton path only: the exact moduli c* satisfy
      c - c* = -r * (1 - C*), so each modulus lies within
      ||r||_inf (1 + ||c||_1) of its exact value (to first order); that
      bound must not exceed ``CNP_TOL``, the margin at which
      :func:`classify` reads the moduli's sign.  The direct path solves the
      recursion itself, and there the bound is pessimistic: 1.6e-10 at
      hs:1.8, N = 128.

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
            raise InvalidSequenceError(
                f"weights and moduli are inconsistent (max defect {err.max():.3g})"
            )
        if newton:
            bound = float(err.max()) * (1.0 + float(np.abs(c.values).sum()))
            if not bound <= CNP_TOL:
                raise InvalidSequenceError(
                    f"inverted moduli are not certified to {CNP_TOL:g} (error bound {bound:.3g})"
                )
    return c


def parse_family(tag: str, n_terms: int) -> KernelHandle:
    """Build a handle from a CLI-style tag.

    Accepted forms: ``hardy``, ``hs:<s>``, ``geom:<q>``,
    ``custom:<path-to-csv>`` where the CSV holds ``n,value`` rows
    (consecutive indices from 0 are weights, from 1 moduli).
    """
    if tag == "hardy":
        return hardy(n_terms)
    name, colon, number = tag.partition(":")
    if colon and name in ("hs", "geom"):
        try:
            number = float(number)
        except ValueError:
            raise ValueError(f"bad kernel tag {tag!r} (expected {name}:<number>)") from None
        return hs(number, n_terms) if name == "hs" else geometric(number, n_terms)
    if tag.startswith("custom:"):
        return _load_custom(tag[7:], n_terms)
    raise ValueError(f"unknown kernel family tag {tag!r}")


def _load_custom(path: str, n_terms: int) -> KernelHandle:
    """Read ``n,value`` rows: indices 0, 1, 2, ... give weights a_n, and
    indices 1, 2, 3, ... give moduli c_n.  Blank lines, ``#`` comments and a
    header row starting with ``n`` before the data are skipped.  Any other
    row that is not an integer and a float, or whose index breaks the run,
    raises ValueError naming the path, the line and the row.
    """
    import csv

    first, values = None, []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)

        def bad(row, reason):
            return ValueError(f"custom CSV {path!r} line {reader.line_num} "
                              f"({','.join(row)!r}): {reason}")

        for row in reader:
            if not row or row[0].lstrip().startswith("#") or (not values and row[0] == "n"):
                continue
            try:
                n_text, value_text = row
                n, value = int(n_text), float(value_text)
            except ValueError:
                raise bad(row, "expected an integer n and a number") from None
            if first is None:
                if n not in (0, 1):
                    raise bad(row, f"the first index must be 0 (weights) or 1 (moduli), got {n}")
                first = n
            if n != first + len(values):
                raise bad(row, f"index {n} out of sequence, expected {first + len(values)}")
            values.append(value)
    if not values:
        raise ValueError(f"no sequence rows found in {path}")
    if first == 0:
        return from_weights(KernelWeights(values))
    return from_moduli(CoefficientSequence(values), n_terms)


# -- operations --------------------------------------------------------------


def monomial_multiplier_norm(k: KernelHandle, n: int) -> float:
    """Multiplier (= Hilbert-space) norm of z^n, which is 1/sqrt(a_n)."""
    if not 0 <= n <= k.n:
        raise ValueError(f"monomial order {n} outside truncation {k.n}")
    return 1.0 / math.sqrt(k.weights.values[n])


class ComparabilityReport(NamedTuple):
    """Observed ratio range of two weight sequences plus a trend verdict.

    Finite data cannot decide an asymptotic property; ``verdict`` is a
    heuristic reading of the tail drift and is labelled as such.
    """

    comparable: bool
    ratio_min: float
    ratio_max: float
    tail_drift: float
    verdict: str  # "comparable" | "diverging" | "inconclusive"


def are_comparable(a: KernelWeights, a2: KernelWeights) -> ComparabilityReport:
    n = min(a.n, a2.n)
    if n < 2:
        raise ValueError(f"comparing weights needs N >= 2, got N={n}")
    r = a.padded(n) / a2.padded(n)
    tail = r[-max(n // 4, 2):]
    drift = float((tail.max() - tail.min()) / tail.max())
    monotone_escape = bool(
        (np.all(np.diff(tail) >= 0) and tail[-1] > 2.0 * r[: n // 2].min())
        or (np.all(np.diff(tail) <= 0) and tail[-1] < 0.5 * r[: n // 2].max())
    )
    if drift < COMPARABLE_DRIFT:
        verdict = "comparable"
    elif monotone_escape or drift > 0.5:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return ComparabilityReport(
        comparable=verdict == "comparable",
        ratio_min=float(r.min()),
        ratio_max=float(r.max()),
        tail_drift=drift,
        verdict=verdict,
    )


class ClassificationReport(NamedTuple):
    """Classification quantities for one kernel handle at truncation n."""

    family: str
    n: int
    mu: float                      # sum n c_n, inf when the doubling test fails
    efp_limit_estimate: float      # mean of the last n/8 weights
    efp_agreement: float           # |estimate - 1/mu|, nan unless 0 < mu < inf
    iso_to_hinf: bool              # mu finite <=> weights bounded below
    ratio_sup: float               # sup a_n / a_{n-1}
    ratio_bounded: bool            # heuristic: tail sup not escaping
    strictly_cyclic_sup: float     # sup_n sum_k a_k a_{n-k} / a_n, inf if escaping
    cnp: bool                      # all moduli >= -CNP_TOL
    compact_regime: bool           # sum c_n < 1 (via convergence of sum a_n)
    moduli_mass: float             # truncated sum of c_n


def classify(k: KernelHandle) -> ClassificationReport:
    n = k.n
    av = k.weights.values
    mu = k.renewal_mean()

    tail = av[-max(n // 8, 1):]
    efp = float(tail.mean())
    # 1/mu is the Erdos-Feller-Pollard limit only for a positive finite mean
    agreement = abs(efp - 1.0 / mu) if math.isfinite(mu) and mu > 0.0 else math.nan

    ratios = av[1:] / av[:-1]
    ratio_sup = float(ratios.max())
    sup_head = float(ratios[: max(n // 2, 1)].max())
    sup_tail = float(ratios[n // 2:].max()) if n >= 2 else ratio_sup
    ratio_bounded = sup_tail <= sup_head * (1.0 + COMPARABLE_DRIFT) or sup_tail <= 1.0 + 1e-12

    # strict-cyclicity quotients via one self-convolution
    self_conv = fft_convolve(av, av)[: n + 1]
    quot = self_conv / av
    sc_full = float(quot.max())
    strictly_cyclic = sc_full if settled(sc_full, float(quot[: n // 2 + 1].max())) else math.inf

    compact = k.is_compact_regime()
    return ClassificationReport(
        family=k.family_tag,
        n=n,
        mu=mu,
        efp_limit_estimate=efp,
        efp_agreement=agreement,
        iso_to_hinf=bool(math.isfinite(mu)),
        ratio_sup=ratio_sup,
        ratio_bounded=bool(ratio_bounded),
        strictly_cyclic_sup=strictly_cyclic,
        cnp=bool(np.all(k.moduli.values >= -CNP_TOL)),
        compact_regime=compact,
        moduli_mass=k.moduli_mass(),
    )


def continuity_bound(k: KernelHandle, h_norm: float) -> float:
    """Uniform coefficient-sum bound h_norm / sqrt(1 - r^2), compact regime only.

    Every function of the given norm on a compact-image disc has absolutely
    summable Taylor coefficients bounded by this value.
    """
    if not k.is_compact_regime():
        raise KernelDomainError(
            "coefficient-sum bound is +inf outside the compact regime"
        )
    r_sq = k.moduli_mass()
    return float(h_norm) / math.sqrt(1.0 - r_sq)
