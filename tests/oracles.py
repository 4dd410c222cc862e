"""Reference code the tests check the library against; no recipe runs it.

- :func:`pseudo_dist` and :func:`mobius_auto`: the pseudohyperbolic distance
  of ball points and the automorphism phi_w, whose norm reproduces it and
  which leaves it invariant (W. Rudin, *Function Theory in the Unit Ball of
  C^n*, section 2.2); the Schwarz-Pick contraction of the embedded discs is
  checked with the distance too.
- :func:`radial_point` and :func:`radial_gap_dist`: real points 1 - gap
  whose gap is kept exact, and their distance through the gap algebra.
- :func:`separation_delta`: one point's separation constant delta_n, a
  factor at a time, against the sweep of
  :func:`~npdisclab.sequences.garnett_targets`.
- :func:`numeric_deriv`: central differences against the curves'
  closed-form derivatives.
"""

import math

import numpy as np

from npdisclab import DomainError
from npdisclab.geometry import BallPoint, PointTable
from npdisclab.sequences import DiscSequence, SeparationDelta, _delta_record


def radial_point(gap: float) -> BallPoint:
    """The real point 1 - gap on the first axis, with the gap kept exact."""
    if not 0.0 < gap <= 1.0:
        raise DomainError("radial gap must lie in (0, 1]")
    return BallPoint([1.0 - gap], gap=gap)


def pseudo_dist(p: BallPoint, q: BallPoint) -> float:
    """Pseudohyperbolic distance between interior points, in [0, 1).

    Uses the rearrangement

        d^2 = (||z - w||^2 - (||z||^2 ||w||^2 - |<z, w>|^2)) / |1 - <w, z>|^2,

    which is free of the 1 - (nearly 1) cancellation: it is exactly zero at
    coincident points and stays relatively accurate for close ones.  Radial
    real pairs (no Gram defect) take :func:`radial_gap_dist` on their gaps.
    """
    if not (p.is_interior and q.is_interior):
        raise DomainError("distance formula degenerates at the boundary")
    if p.is_radial_real and q.is_radial_real:
        return radial_gap_dist(p.gap, q.gap)
    table = PointTable([p, q])
    a, b = table.coords
    diff_sq = float(np.sum(np.abs(a - b) ** 2))
    # all three through the same dot-product path, so the defect is an
    # exact zero for identical coordinate arrays
    nz_sq = complex(np.dot(a, np.conj(a))).real
    nw_sq = complex(np.dot(b, np.conj(b))).real
    ip = complex(np.dot(a, np.conj(b)))
    num = diff_sq - (nz_sq * nw_sq - abs(ip) ** 2)
    dsq = num / abs(complex(table.one_minus_inner(1, 0))) ** 2
    return math.sqrt(min(max(dsq, 0.0), 1.0))


def radial_gap_dist(gap_a: float, gap_b: float) -> float:
    """Distance between the real points 1 - gap_a and 1 - gap_b.

    Cancellation-free: the difference is formed from the gaps directly and
    1 - zw through the gap algebra of :class:`PointTable`.
    """
    table = PointTable([radial_point(gap_a), radial_point(gap_b)])
    return abs(gap_a - gap_b) / float(table.one_minus_inner(0, 1).real)


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
        raise DomainError("<z, w> too close to 1; points must be interior")
    proj = (ip_zw / wn_sq) * wc
    perp = zc - proj
    scale = math.sqrt(max(1.0 - wn_sq, 0.0))
    return BallPoint((wc - proj - scale * perp) / denom)


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
        return (curve.eval(z + step).coords - curve.eval(z - step).coords) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0
