"""Separation constants against the certified Gram spectrum (Carleson's theorem).

For distinct disc points with normalized Szego Gram matrix G, every
delta_n = prod_{k != n} d(z_n, z_k) is at least rho* = sqrt(lambda_min(G) /
lambda_max(G)): with D = diag(w), ||D|| <= rho*, G - D G D* >= 0, so by Pick
the targets rho* e_n are interpolated by some phi with ||phi|| <= 1, which
vanishes at the other points, so rho* = |phi(z_n)| <= |B_n(z_n)| = delta_n
(Garnett, *Bounded Analytic Functions*, ch. VII).  A certified extractor
stage has lambda_min - r^2 lambda_max > 0, so every selection has
delta_min > r.

delta_n comes from ``sequences``' pair sweep, G from the extractor's
:class:`~npdisclab.geometry.PointTable`, so the check ties the two owners of
the pair geometry together.  As d(z_n, z_k)^2 = 1 - |G_nk|^2, each delta_n
is also read from G itself, which catches a factor the sweep drops; the
lower bound alone cannot, since every factor is at most 1.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npdisclab import pick
from npdisclab.csvio import read_rows
from npdisclab.pick import extract_interpolating_subsequence
from npdisclab.rounding import rayleigh_bound
from npdisclab.sequences import DiscSequence, garnett_targets, named_sequence

GOLDEN = Path(__file__).parent / "golden"

EPS = np.finfo(float).eps

#: (tag, n, r, kmax) that certify, at or near the largest kmax that does
CONFIGS = [
    *[("wn_gaussian", n, r, k) for n, r, k in (
        (8, 0.3, 8), (9, 0.5, 9), (10, 0.7, 8), (11, 0.3, 11), (12, 0.5, 12), (13, 0.7, 10),
        (14, 0.3, 14), (15, 0.5, 14), (16, 0.7, 12), (17, 0.3, 17), (18, 0.5, 16),
        (19, 0.7, 14), (20, 0.3, 18), (21, 0.5, 18), (22, 0.7, 16), (23, 0.3, 18),
        (24, 0.5, 18), (25, 0.7, 18), (26, 0.3, 18), (27, 0.5, 18))],
    *[("vn_quadratic", n, r, k) for n, r, k in (
        (100, 0.3, 3), (100, 0.5, 2), (100, 0.7, 2), (1000, 0.3, 4), (1000, 0.5, 3),
        (1000, 0.7, 3))],
    *[("xn_alternating", n, r, k) for n, r, k in (
        (100, 0.3, 5), (100, 0.5, 4), (100, 0.7, 3), (1000, 0.3, 6), (1000, 0.5, 5),
        (1000, 0.7, 4))],
    *[("dyadic_separated", n, r, k) for n, r, k in (
        (8, 0.3, 2), (10, 0.3, 3), (12, 0.3, 4), (14, 0.3, 5), (14, 0.5, 3), (14, 0.7, 2))],
]


def _check(seq: DiscSequence, idx: np.ndarray) -> tuple[np.ndarray, float]:
    """Both sides of the theorem on the points ``idx`` of ``seq``.

    Returns log delta_n and rho*_lower.  rho*_lower is 0 where the Rayleigh
    bound reaches lambda_min, and the lower bound then checks nothing; the
    callers say whether that may happen.
    """
    sel = DiscSequence(seq.points[idx], seq.label, gaps=seq.gaps[idx],
                       log_gaps=seq.log_gaps[idx], angles=seq.angles[idx])
    log_delta = np.array([b.delta.log_value for b in garnett_targets(sel)])
    gram, log_block, coord_rel = pick._normalized_gram(seq.table, idx)
    e = rayleigh_bound(gram, log_block, coord_rel)
    eig = np.linalg.eigvalsh(gram)
    rho_lower = math.sqrt(max(eig[0] - e, 0.0) / (eig[-1] + e))

    # b_n, delta's own rounding bound on log delta_n, one term per pair by
    # the table's radial rule: each distance carries at most 8 eps relative
    # from its few roundings, and the log and the column sum add eps.  A
    # pair the sweep forms from coordinates adds c eps/|1 - z conj(w)|,
    # which is coord_rel; a radial pair adds the rounding of its log-gaps
    # l_i, l_j instead, u (|l_i| + |l_j|) (1 + 1/|l_i - l_j|) relative
    lg = sel.log_gaps
    radial = ~np.isnan(sel.table.radial_gaps)
    off = ~np.eye(len(idx), dtype=bool)
    with np.errstate(divide="ignore"):  # equal log-gaps, never a radial pair
        log_gap_rel = (EPS / 2 * (np.abs(lg)[:, None] + np.abs(lg)[None, :])
                       * (1.0 + 1.0 / np.abs(lg[:, None] - lg[None, :])))
    per_pair = 9 * EPS + coord_rel + np.where(radial[:, None] & radial[None, :], log_gap_rel, 0.0)
    delta_err = np.where(off, per_pair, 0.0).sum(axis=1)
    assert rho_lower == 0.0 or np.all(log_delta >= math.log(rho_lower) - delta_err)

    # the same delta_n from G: log delta_n = sum_k log(1 - |G_nk|^2) / 2.
    # G_nk carries the relative error rayleigh_bound charges it, rel, so
    # the term moves by at most rel |G|^2/(1 - |G|^2), plus eps for log1p
    # and the sum
    a = np.where(off, np.abs(gram) ** 2, 0.0)
    ell, diag_rel = np.abs(log_block), np.diag(coord_rel)
    rel = (EPS * (10 + 2 * ell + np.diag(ell)[:, None] + np.diag(ell)[None, :])
           + 2 * coord_rel + diag_rel[:, None] + diag_rel[None, :])
    # and a row holding a pair at |G_nk| = 1 in double carries no Gram form;
    # such a G is singular, so only a set with rho*_lower = 0 may hold one
    rows = np.all(a < 1.0, axis=1)
    assert rho_lower == 0.0 or rows.all()
    a, rel, off = a[rows], rel[rows], off[rows]
    gram_form = 0.5 * np.log1p(-a).sum(axis=1)
    gram_err = np.where(off, rel * a / (1.0 - a) + 2 * EPS, 0.0).sum(axis=1)
    assert np.all(np.abs(log_delta[rows] - gram_form) <= delta_err[rows] + gram_err)
    return log_delta, rho_lower


@pytest.mark.parametrize("golden", ["interp-extract.csv", "interp-extract-k18.csv"])
def test_golden_selections(golden):
    with open(GOLDEN / golden, encoding="utf-8") as fh:
        doc = read_rows(fh)
    params = dict(c.removeprefix("param ").split(" = ") for c in doc.comments
                  if c.startswith("param "))
    idx = np.array([row[doc.columns.index("index")] for row in doc.rows])
    log_delta, rho_lower = _check(named_sequence(params["tag"], int(params["n"])), idx)
    assert rho_lower > 0.0 and math.exp(log_delta.min()) > float(params["r"])


@pytest.mark.parametrize("tag, n, r, kmax", CONFIGS)
def test_extractor_selections(tag, n, r, kmax):
    seq = named_sequence(tag, n)
    res = extract_interpolating_subsequence(seq.table, r, kmax)
    log_delta, rho_lower = _check(seq, np.array(res.indices))
    assert rho_lower > 0.0 and math.exp(log_delta.min()) > r


#: points on the positive ray, gaps spread over their exponent from 1e-12 to 0.9
radial_points = st.floats(-12.0, math.log10(0.9)).map(lambda e: (10.0**e, 0.0))

#: points off the ray: gaps from 1e-6 to 0.9, angles from 1e-6 to 2 pi, both
#: spread over their exponent
angled_points = st.tuples(st.floats(-6.0, math.log10(0.9)).map(lambda e: 10.0**e),
                          st.floats(-6.0, math.log10(2 * math.pi)).map(lambda e: 10.0**e))


def test_random_sets():
    # a set too near singular for the Rayleigh bound has rho*_lower = 0 and
    # checks only the Gram form; nine in ten sets must reach the lower bound
    reached = []

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(st.one_of(radial_points, angled_points), min_size=2, max_size=30, unique=True))
    def check(points):
        gaps, angles = np.array(points).T
        seq = DiscSequence((1.0 - gaps) * np.exp(1j * angles), "random", gaps=gaps, angles=angles)
        reached.append(_check(seq, np.arange(seq.n))[1] > 0.0)

    check()
    assert sum(reached) >= 0.9 * len(reached), f"{sum(reached)} of {len(reached)} sets"
