"""Kernel families and isomorphism diagnostics for embedded-disc algebras.

A kernel handle pairs a weight sequence (a_n) with its embedding moduli
(c_n) so that K(z, w) = sum a_n (z conj(w))^n = 1/(1 - sum c_n (z conj(w))^n).
On top of the handle sit the classification quantities: the renewal mean
mu = sum n c_n, the tail limit of a_n (which equals 1/mu by the
Erdos-Feller-Pollard theorem), the quotient-boundedness witness
sup a_n/a_{n-1}, the strict-cyclicity supremum, the complete-Pick flag and
the compact-image flag.  Every limit among them is read from the whole
doubling sequence by :func:`~npdisclab.series.doubling_limit`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import DomainError, row_blocks
from .rounding import CIRCLE_BAND, CNP_TOL, log_ratio_error
from .series import (
    CoefficientSequence,
    KernelWeights,
    doubling_limit,
    doubling_points,
    fft_convolve,
    power_sum,
    verified_moduli,
    weights_from_moduli,
)

#: first and largest chunk of terms summed by :func:`_hs_generating`
_HS_CHUNK_MIN = 256
_HS_CHUNK_MAX = 65536
#: :func:`_hs_generating` stops after about this many terms
_HS_TERM_CAP = 5e7


class KernelHandle:
    """Consistent (weights, moduli) pair with a family tag.

    Construct via the family helpers :func:`hardy`, :func:`hs`,
    :func:`geometric`, :func:`from_moduli`, :func:`from_weights` or
    :func:`parse_family`; the constructor only stores its fields.  Hardy
    and geometric weights are closed forms and :func:`from_moduli` weights
    come from the renewal recursion itself; moduli inverted from weights
    (:func:`hs`, :func:`from_weights`) are checked against those weights by
    their residual in :func:`~npdisclab.series.verified_moduli`.
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

    def is_compact_regime(self) -> bool | None:
        """Whether sum a_n converges (iff sum c_n < 1); None when undecided."""
        return doubling_limit(doubling_points(self.weights.values, np.add)).converged

    def renewal_mean(self) -> float:
        """mu = sum n c_n as its doubling limit: inf when diverging, nan when undecided."""
        ncn = self.moduli.values * np.arange(1, self.moduli.n + 1)
        return doubling_limit(doubling_points(ncn, np.add)).value

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

    Over a 1-d array of t (a scalar is one element), one
    :func:`~npdisclab.row_blocks` slice of t at a time.  Chunks start at
    ``_HS_CHUNK_MIN`` terms and double up to ``_HS_CHUNK_MAX``; each sum
    stops once its last term times the chunk length falls below 1e-17 of
    its running total.  For |t| < 1 the error is then at most
    1e-14 * A_s(|t|), an absolute bound scaled by the sum of the term
    magnitudes: close to the circle it is set by cancellation between
    terms, not by truncation.  On the circle |t| = 1 the sum is only taken
    when s < -1 (absolutely summable), and it is truncated silently after
    ``_HS_TERM_CAP`` terms (ROADMAP item 4).  For s >= -1, A_s(1) = inf and
    every other point within ``CIRCLE_BAND`` of the circle raises
    DomainError: there the series does not converge absolutely.
    """
    t = np.atleast_1d(np.asarray(t, dtype=complex))
    if np.any(np.abs(t) > 1.0 + CIRCLE_BAND):
        raise DomainError("generating function evaluated outside the closed disc")
    if s >= -1.0 and np.any((np.abs(t) > 1.0 - CIRCLE_BAND) & (t != 1.0)):
        raise DomainError(f"hs:{s:g} series is not absolutely summable on the unit circle")
    total = np.where((t == 1.0) & (s >= -1.0), complex(math.inf), 0j)
    live = np.flatnonzero(np.isfinite(total))
    chunk, n0 = _HS_CHUNK_MIN, 0
    while live.size and n0 <= _HS_TERM_CAP:
        n = np.arange(n0, n0 + chunk)
        a = (n + 1.0) ** s
        going = []
        for rows in row_blocks(live.size, chunk):
            idx = live[rows]
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
        raise DomainError(f"hardy needs at least one term, got N={n_terms}")
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
    return KernelHandle(a, verified_moduli(a), f"hs:{s:g}", s=float(s))


def geometric(q: float, n_terms: int) -> KernelHandle:
    """Geometric moduli c_n = q^n; requires 0 < q <= 1/2 so mass stays <= 1.

    The weights need no recursion: 1/(1 - qz/(1 - qz)) = 1 + qz/(1 - 2qz),
    so a_0 = 1 and a_n = q (2q)^(n-1), computed as (2q)^n / 2 where both the
    doubling and the halving are exact.  For q < 1/2 the weights underflow
    to 0 past n of about 1074 / log2(1/(2q)), which :class:`KernelWeights`
    rejects.
    """
    if not 0.0 < q <= 0.5:
        raise DomainError("geometric ratio must lie in (0, 1/2]")
    c = CoefficientSequence(q ** np.arange(1, n_terms + 1))
    a = KernelWeights(np.concatenate(([1.0], 0.5 * (2.0 * q) ** np.arange(1, n_terms + 1))))
    return KernelHandle(a, c, f"geom:{q:g}", q=float(q))


def from_moduli(c: CoefficientSequence, n_terms: int) -> KernelHandle:
    """Custom handle of the moduli c_1..c_{n_terms}, zero-padded or truncated."""
    cp = CoefficientSequence(c.padded(n_terms), validate=False)
    return KernelHandle(weights_from_moduli(c, n_terms), cp, "custom")


def from_weights(a: KernelWeights) -> KernelHandle:
    """Custom handle of the weights a_0..a_N and their inverted moduli."""
    return KernelHandle(a, verified_moduli(a), "custom")


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
            raise DomainError(f"bad kernel tag {tag!r} (expected {name}:<number>)") from None
        return hs(number, n_terms) if name == "hs" else geometric(number, n_terms)
    if tag.startswith("custom:"):
        return _load_custom(tag[7:], n_terms)
    raise DomainError(f"unknown kernel family tag {tag!r}")


def _load_custom(path: str, n_terms: int) -> KernelHandle:
    """Read ``n,value`` rows: indices 0, 1, 2, ... give weights a_n, cut to
    a_0..a_N, and indices 1, 2, 3, ... give moduli c_n.  Blank lines, ``#``
    comments and a header row starting with ``n`` before the data are
    skipped.  Any other row that is not an integer and a float, or whose
    index breaks the run, raises DomainError naming the path, the line and
    the row; text that is not UTF-8, or a row the csv module refuses, raises
    DomainError naming the path.
    """
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DomainError(f"custom CSV {path!r}: {exc}") from None

    def at(line, row):
        return f"custom CSV {path!r} line {line} ({','.join(row)!r})"

    first, values = None, []
    for line, row in rows:
        if not row or row[0].lstrip().startswith("#") or (not values and row[0] == "n"):
            continue
        try:
            n_text, value_text = row
            n, value = int(n_text), float(value_text)
        except ValueError:
            raise DomainError(f"{at(line, row)}: expected an integer n and a number") from None
        if first is None:
            if n not in (0, 1):
                raise DomainError(f"{at(line, row)}: the first index must be 0 (weights) "
                                  f"or 1 (moduli), got {n}")
            first = n
        if n != first + len(values):
            raise DomainError(f"{at(line, row)}: index {n} out of sequence, "
                              f"expected {first + len(values)}")
        values.append(value)
    if not values:
        raise DomainError(f"no sequence rows found in {path}")
    if first == 0:
        return from_weights(KernelWeights(KernelWeights(values).padded(n_terms)))
    return from_moduli(CoefficientSequence(values), n_terms)


# -- operations --------------------------------------------------------------


def monomial_multiplier_norm(k: KernelHandle, n: int) -> float:
    """Multiplier (= Hilbert-space) norm of z^n, which is 1/sqrt(a_n)."""
    if not 0 <= n <= k.n:
        raise DomainError(f"monomial order {n} outside truncation {k.n}")
    return 1.0 / math.sqrt(k.weights.values[n])


class ComparabilityReport(NamedTuple):
    """Observed ratio range of two weight sequences, the spread of its last
    quarter (reported only) and the limit verdict of the ratio."""

    comparable: bool | None
    ratio_min: float
    ratio_max: float
    tail_drift: float
    verdict: str  # "comparable" | "diverging" | "inconclusive"


def _log_limit(r: np.ndarray):
    """Doubling limit of log r, which converges iff r tends to a positive finite limit.

    The logs are read within :func:`~npdisclab.rounding.log_ratio_error`.  So
    power laws give q = 1 within rounding, and moduli (0.7, 0.3), whose float
    sum is 1 - 5.6e-17, drift by rounding only."""
    logs = np.log(doubling_points(r))
    return doubling_limit(logs, log_ratio_error(logs, r.size))


def are_comparable(a: KernelWeights, a2: KernelWeights) -> ComparabilityReport:
    n = min(a.n, a2.n)
    if n < 2:
        raise DomainError(f"comparing weights needs N >= 2, got N={n}")
    r = a.padded(n) / a2.padded(n)
    tail = r[-max(n // 4, 2):]
    lim = _log_limit(r)
    return ComparabilityReport(
        comparable=lim.converged,
        ratio_min=float(r.min()),
        ratio_max=float(r.max()),
        tail_drift=float((tail.max() - tail.min()) / tail.max()),
        verdict={True: "comparable", False: "diverging", None: "inconclusive"}[lim.converged],
    )


class ClassificationReport(NamedTuple):
    """Classification quantities for one kernel handle at truncation n; each limit
    is a :func:`~npdisclab.series.doubling_limit`, None or nan when undecided."""

    family: str
    n: int
    mu: float                      # sum n c_n: its limit, inf if diverging
    efp_limit_estimate: float      # lim a_n: exp of the limit of log a_n, 0 if it diverges down
    efp_agreement: float           # |estimate - 1/mu|, nan unless iso_to_hinf and 0 < mu < inf
    iso_to_hinf: bool | None       # a_n tends to a positive limit (log a_n converges)
    ratio_sup: float               # sup a_n / a_{n-1}
    ratio_bounded: bool | None     # running sup of a_n / a_{n-1} converges
    strictly_cyclic_sup: float     # sup_n sum_k a_k a_{n-k} / a_n: its limit, inf if diverging
    cnp: bool                      # all moduli >= -CNP_TOL
    compact_regime: bool | None    # sum c_n < 1 (via convergence of sum a_n)
    moduli_mass: float             # truncated sum of c_n


def classify(k: KernelHandle) -> ClassificationReport:
    n = k.n
    av = k.weights.values
    mu = k.renewal_mean()
    log_lim = _log_limit(av)
    iso = log_lim.converged
    with np.errstate(over="ignore"):  # a limit past log(DBL_MAX) is inf
        efp = float(np.exp(log_lim.value))
    # 1/mu is the Erdos-Feller-Pollard limit only when the weights have a positive limit
    agreement = abs(efp - 1.0 / mu) if iso and math.isfinite(mu) and mu > 0.0 else math.nan

    ratios = av[1:] / av[:-1]
    # strict-cyclicity quotients via one self-convolution
    quot = fft_convolve(av, av)[: n + 1] / av

    return ClassificationReport(
        family=k.family_tag,
        n=n,
        mu=mu,
        efp_limit_estimate=efp,
        efp_agreement=agreement,
        iso_to_hinf=iso,
        ratio_sup=float(ratios.max()),
        ratio_bounded=doubling_limit(doubling_points(ratios, np.maximum)).converged,
        strictly_cyclic_sup=doubling_limit(doubling_points(quot, np.maximum)).value,
        cnp=bool(np.all(k.moduli.values >= -CNP_TOL)),
        compact_regime=k.is_compact_regime(),
        moduli_mass=k.moduli_mass(),
    )


def continuity_bound(k: KernelHandle, h_norm: float) -> float:
    """Uniform coefficient-sum bound h_norm / sqrt(1 - r^2), compact regime only.

    Every function of the given norm on a compact-image disc has absolutely
    summable Taylor coefficients bounded by this value.
    """
    if not k.is_compact_regime():
        raise DomainError(
            "coefficient-sum bound is +inf outside the compact regime"
        )
    r_sq = k.moduli_mass()
    return float(h_norm) / math.sqrt(1.0 - r_sq)
