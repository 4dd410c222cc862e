"""Diagnostics for sequences in the unit disc.

Blaschke mass, pairwise separation, strong separation (the Blaschke-product
quantities delta_n), Carleson-box ratios and the per-point interpolation
budgets from Garnett's theorem, together with generators for the named
example sequences.  Points carry their boundary gaps 1 - |v| exactly (and
log-gaps when the gap itself underflows), because the interesting sequences
hug the boundary far beyond double-precision resolution.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import DomainError, row_blocks
from .geometry import pseudo_dist_scalar, radial_log_gap_dist

#: minimum pairwise distance for the separation verdict
SEPARATION_THRESHOLD = 1e-3

#: log delta below this value is flagged as underflowed
LOG_FLOOR = -700.0

NAMED_TAGS = ("vn_quadratic", "wn_gaussian", "dyadic_separated", "xn_alternating")

#: most points ``dyadic_separated`` may hold (generations n <= 30)
DYADIC_MAX_POINTS = 2**17


class DiscSequence:
    """Finite list of distinct points in the open disc.

    ``gaps`` holds 1 - |v_n| exactly, as the caller knows it;
    ``log_gaps`` extends this below the underflow threshold.  ``angles``
    holds exact arguments for the membership tests of Carleson boxes.
    """

    def __init__(self, points, label: str, *, gaps, log_gaps=None, angles):
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        if pts.size == 0:
            raise DomainError("sequence must contain at least one point")
        self.points = pts
        self.label = label
        self.gaps = np.asarray(gaps, dtype=float)
        if np.any(self.gaps < 0.0) or (log_gaps is None and np.any(self.gaps == 0.0)):
            raise DomainError("all points must lie in the open disc")
        self.log_gaps = (
            np.asarray(log_gaps, dtype=float)
            if log_gaps is not None
            else np.log(self.gaps)
        )
        self.angles = np.asarray(angles, dtype=float)
        #: all points on [0, 1): distances then come from the exact log-gaps
        self.is_radial_positive = bool(
            np.all(pts.imag == 0.0) and np.all(pts.real >= 0.0)
            and np.all(self.angles == 0.0)
        )

    @property
    def n(self) -> int:
        return self.points.size

    def pair_dist(self, i, j):
        """d(v_i, v_j) over broadcast indices: exact log-gaps if radial, else the points."""
        if self.is_radial_positive:
            return radial_log_gap_dist(self.log_gaps[i], self.log_gaps[j])
        return pseudo_dist_scalar(self.points[i], self.points[j])

    def __repr__(self) -> str:
        return f"DiscSequence({self.label!r}, n={self.n})"


def named_sequence(tag: str, n: int) -> DiscSequence:
    """Generators for the example sequences.

    vn_quadratic: v_n = 1 - 1/n^2 for n >= 2 (n points).
    wn_gaussian:  w_n = 1 - e^{-n^2} for n >= 1 (n points).
    dyadic_separated: generations 1..n, generation m holding
        floor(2^{m/2}) points (1 - 2^-m) e^{ik 2^-m}; DomainError beyond
        ``DYADIC_MAX_POINTS`` points in all.
    xn_alternating: x_n = (-1)^n (1 - 1/n^2) for n >= 2.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if tag == "vn_quadratic":
        idx = np.arange(2, n + 2, dtype=float)
        gaps = 1.0 / idx**2
        return DiscSequence(1.0 - gaps, tag, gaps=gaps,
                            angles=np.zeros(n))
    if tag == "wn_gaussian":
        idx = np.arange(1, n + 1, dtype=float)
        log_gaps = -(idx**2)
        gaps = np.exp(log_gaps)  # underflows to 0 beyond n = 27; log kept
        return DiscSequence(1.0 - gaps, tag, gaps=gaps, log_gaps=log_gaps,
                            angles=np.zeros(n))
    if tag == "xn_alternating":
        idx = np.arange(2, n + 2, dtype=float)
        gaps = 1.0 / idx**2
        signs = np.where(np.arange(2, n + 2) % 2 == 0, 1.0, -1.0)
        pts = signs * (1.0 - gaps)
        angles = np.where(signs > 0, 0.0, math.pi)
        return DiscSequence(pts, tag, gaps=gaps, angles=angles)
    if tag == "dyadic_separated":
        counts = []
        for m in range(1, n + 1):
            counts.append(int(math.floor(2.0 ** (m / 2.0))))
            if sum(counts) > DYADIC_MAX_POINTS:
                raise DomainError(
                    f"dyadic_separated n={n} passes {DYADIC_MAX_POINTS} points "
                    f"at generation {m}"
                )
        gaps = np.repeat(np.ldexp(1.0, -np.arange(1, n + 1)), counts)
        angles = np.concatenate([np.arange(count) for count in counts]) * gaps  # k 2^-m, exact
        return DiscSequence((1.0 - gaps) * np.exp(1j * angles), tag, gaps=gaps, angles=angles)
    raise DomainError(f"unknown sequence tag {tag!r}; known: {NAMED_TAGS}")


class BlaschkeSum(NamedTuple):
    """Partial Blaschke mass with the doubling-limit verdict of its partial sums."""

    total: float
    converged: bool | None


def blaschke_sum(s: DiscSequence) -> BlaschkeSum:
    """sum (1 - |v_n|) over the truncated list."""
    from .series import doubling_limit, doubling_points  # here only: others skip series

    verdict = doubling_limit(doubling_points(s.gaps, np.add))
    return BlaschkeSum(float(s.gaps.sum()), verdict.converged)


class SeparationDelta(NamedTuple):
    """Strong-separation product for one point, kept in log space."""

    value: float
    log_value: float
    underflowed: bool


def _delta_record(log_total: float) -> SeparationDelta:
    underflowed = log_total < LOG_FLOOR or math.isinf(log_total)
    value = math.exp(log_total) if log_total > LOG_FLOOR else 0.0
    return SeparationDelta(value, log_total, underflowed)


def _pair_sweep(s: DiscSequence) -> tuple[np.ndarray, np.ndarray]:
    """Row minima of d(v_i, v_j) over j != i and column sums of log d(v_i, v_j).

    One sweep over distance row blocks, one :meth:`DiscSequence.pair_dist`
    call each, so every pair is evaluated once and no n x n array exists.
    The column sums add rows in order, as ``sum(axis=0)`` of the whole
    log-distance matrix would: each block is reduced with the running sum
    stacked on top of it.  The sum starts from zeros, which moves no bit
    since no log-distance is -0.0.  A single point has minimum inf and
    sum 0.
    """
    idx = np.arange(s.n)
    nearest = np.empty(s.n)
    blocks = list(row_blocks(s.n, s.n))
    stack = np.zeros((blocks[0].stop + 1, s.n))  # row 0: the running sum
    for rows in blocks:
        d = s.pair_dist(idx[rows, None], idx[None, :])
        diag = (np.arange(d.shape[0]), idx[rows])
        d[diag] = np.inf
        nearest[rows] = d.min(axis=1)
        logs = stack[1:d.shape[0] + 1]
        with np.errstate(divide="ignore"):
            np.log(d, out=logs)
        logs[diag] = 0.0
        stack[0] = stack[:d.shape[0] + 1].sum(axis=0)
    return nearest, stack[0]


def is_separated(s: DiscSequence) -> tuple[bool, float]:
    """Minimum pairwise distance and its verdict against the threshold."""
    if s.n < 2:
        raise DomainError("separation needs at least two points")
    inf_gap = float(_pair_sweep(s)[0].min())
    return inf_gap > SEPARATION_THRESHOLD, inf_gap


#: largest box exponent: 2^p overflows a double beyond it
CARLESON_P_MAX = 1023


def carleson_ratio(s: DiscSequence, p: int) -> float:
    """Box mass ratio 2^p sum_{v in S_p} (1 - |v|).

    S_p is the Carleson box over the arc [0, 2^-p): radius at least
    1 - 2^-p, argument in [0, 2^-p).  Membership is decided by exact
    comparisons on the stored gaps and angles; only this dyadic-aligned box
    family is implemented.
    """
    if not 1 <= p <= CARLESON_P_MAX:
        raise DomainError(f"p must lie in 1..{CARLESON_P_MAX}")
    side = 2.0**-p
    mask = (s.gaps <= side) & (s.angles >= 0.0) & (s.angles < side)
    return float(2.0**p * s.gaps[mask].sum())


class GarnettBudget(NamedTuple):
    """Interpolation budget delta (1 + log(1/delta))^-2 for one point,
    with the distance to its nearest other point (inf for a single point)."""

    budget: float
    delta: SeparationDelta
    nearest: float


def garnett_targets(s: DiscSequence) -> list[GarnettBudget]:
    """Per-point maximal target magnitudes guaranteed interpolable.

    Formed from the strong-separation products; points whose truncated
    delta underflowed are flagged through the attached delta record.  Each
    delta_n = prod_{i != n} d(v_i, v_n), the Blaschke-factor product, is
    kept in log space: the sum down column n of log d(v_i, v_n), added row
    by row; the same sweep gives each point's nearest distance.  The
    truncated product over-estimates the full one.
    """
    nearest, log_delta = _pair_sweep(s)
    # an underflowed delta has value 0.0, so its budget is 0.0 as well
    return [GarnettBudget(d.value * (1.0 - d.log_value) ** -2.0, d, gap)
            for d, gap in zip(map(_delta_record, log_delta.tolist()), nearest.tolist())]
