"""Verdict tolerances and rounding bounds, in one place.

Every verdict the lab prints rests on a fixed tolerance or on a bound
derived from the unit roundoff u = eps/2: Pick solvability, the ``cnp``
flag, the moduli check, the embedding refusals and the certified extractor
stages.  The layers read them from here and keep no copy, and the
floating-point error model (units of u, the ``eigvalsh`` term, Weyl's rule)
stays inside this module (N. J. Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 3 and 19).

Two answers to "is this modulus nonnegative" disagree: the ``cnp`` flag
counts inverted moduli down to -``CNP_TOL`` = -1e-10 as nonnegative, while
an embedding refuses any modulus below ``MODULI_FLOOR`` = -1e-12.  Both are
fixed tolerances, not bounds on the moduli's rounding, and a modulus
between them reads complete-Pick yet has no embedding.
"""

from __future__ import annotations

import math

import numpy as np

#: relative eigenvalue tolerance separating the three verdict zones
PSD_TOL = 1e-10

#: inverted moduli down to -CNP_TOL still count as nonnegative
CNP_TOL = 1e-10

#: weights and moduli are consistent while every renewal residual stays
#: within RESIDUAL_TOL max(|a_n|, 1)
RESIDUAL_TOL = 1e-10

#: moduli may sum to 1 + MASS_SLACK and still form an embedding
MASS_SLACK = 1e-12

#: moduli below this refuse an embedding
MODULI_FLOOR = -1e-12

#: points within this distance of the unit circle count as on it
CIRCLE_BAND = 1e-12


def coordinate_rel(d: int, mag: np.ndarray, formed: np.ndarray) -> np.ndarray:
    """``coord_rel`` of :func:`rayleigh_bound`: c eps/|w_ij|, c = d + 3, on the
    pairs ``formed`` from d coordinates and 0 elsewhere; ``mag`` is |w_ij|."""
    return np.divide((d + 3) * np.finfo(float).eps, mag, out=np.zeros_like(mag), where=formed)


def rayleigh_bound(gram: np.ndarray, log_block: np.ndarray, coord_rel: np.ndarray) -> float:
    """Rounding bound on the computed margin lambda_min(G) - r^2 lambda_max(G).

    With D = diag(w), |w_i| <= r, and E = diag(1 - |w_i|^2) <= I, the
    normalized Pick matrix is E^{-1/2} (G - D G D*) E^{-1/2} and
    G - D G D* >= (lambda_min(G) - r^2 lambda_max(G)) I, so a margin >= 0
    bounds its smallest eigenvalue over the closed r-polydisc.

    The data are the gaps of radial real points and the coordinates of the
    others.  The owner's w_ij = 1 - <z_i, z_j> carries 4 units u = eps/2 of
    relative error (the gap algebra's or the last subtraction's).  A pair of
    d coordinates in the closed unit ball adds the complex inner product's
    sqrt(2) gamma_{d+2} <= 2(d + 2)u and u for a radial point's rounded
    1 - g (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3):
    at most c eps, c = d + 3, so delta_ij = c eps/|w_ij| relative
    (``coord_rel``).  As G_ij = sqrt(w_ii w_jj)/w_ij, that moves G_ij by at
    most 2 delta_ij + delta_ii + delta_jj relative, twice the first-order
    term, while every delta <= 1/4 (past that the bound is inf).  In units
    of u, with l = -log |w|:
    - the 4, |.| (2) and log (2|l_ij|) leave l_ij within 6 + 2|l_ij|;
    - l_ij - (l_ii + l_jj)/2 adds two roundings, exp 2 and the unit phase
      5, so an off-diagonal entry is within 19 + 3|l_ij| + 2(|l_ii| + |l_jj|),
      rounded up here to eps (10 + 2|l_ij| + |l_ii| + |l_jj|), relative to
      |G_ij|, plus the data's share above; the diagonal is exactly 1;
    - that Hermitian error has 2-norm at most its largest absolute row sum;
    - ``eigvalsh`` returns the exact eigenvalues of G + F with
      ||F|| <= 2k^2 u ||G|| (Householder tridiagonalization then implicit
      QL; Higham, ch. 3 and 19), and ||G|| is at most s, the largest
      absolute row sum of G;
    - by Weyl the margin moves by at most (1 + r^2) <= 2 times the two
      norms, plus eps s for its own rounding.
    """
    if coord_rel.max() > 0.25:
        return math.inf
    eps = np.finfo(float).eps
    ell = np.abs(log_block)
    diag, dd = np.diag(ell), np.diag(coord_rel)
    err = (eps * (10 + 2 * ell + diag[:, None] + diag[None, :])
           + 2 * coord_rel + dd[:, None] + dd[None, :]) * np.abs(gram)
    np.fill_diagonal(err, 0)
    k = gram.shape[0]
    s = float(np.abs(gram).sum(axis=1).max())
    return 2 * float(err.sum(axis=1).max()) + eps * (2 * k * k + 1) * s


def log_ratio_error(logs: np.ndarray, size: int) -> float:
    """Absolute rounding of ``logs``, logs of a ratio r of ``size`` entries.

    Each log carries r's relative rounding as absolute error: a few ulps,
    and up to N more for weights from a recursion or an inversion.
    """
    return np.finfo(float).eps * (4.0 + 4.0 * np.abs(logs).max() + size)
