"""Pick matrices, solvability tests and interpolating-subsequence extraction.

For nodes z_i, targets w_i and a kernel K the Pick matrix is

    A[i, j] = (1 - w_i conj(w_j)) K(z_i, z_j),

positive semidefiniteness of which characterizes solvability of the
interpolation problem on a complete-Pick kernel.  :func:`psd_check` reads
it from one spectral call at every size, the smallest ``eigvalsh``
eigenvalue.  The extractor walks a boundary-bound point list and keeps a
point once a single determinant term (1 - r^2) delta K(z, z) provably
dominates the remaining expansion terms, the dominance being certified
through Hadamard bounds, and once a Rayleigh margin on the normalized Gram
matrix proves every Pick matrix over the closed target polydisc positive
definite.

Everything works on arrays.  The nodes are one
:class:`~npdisclab.geometry.PointTable`, which each entry point builds once
from a table or from disc points, and every 1 - <z_i, z_j> comes from its
:meth:`~npdisclab.geometry.PointTable.one_minus_inner`, which keeps the
exact gap algebra for radial points.  Pairwise and stacked work runs in the
row blocks of :func:`~npdisclab.row_blocks`, so temporaries stay
within ``BLOCK_ENTRIES`` entries whatever the node count.  The Gram matrix
takes the owner once per row block of its upper triangle and evaluates the
caller's handle on the block in one ``kernel_from_defect`` call: closed
forms (hardy, Drury-Arveson on ball points, and geometric), the series by
Horner otherwise.  It is the only n x n array besides ``eigvalsh``'s copy.
The coincidence check is one broadcast comparison per row block.  Each
extractor stage reads its log kernel blocks -log |1 - <z_i, z_j>| from the
owner in one broadcast call per block.  Its delta is one log
determinant, 2 sum log diag(L) from one real Cholesky call, of the
entrywise worst case of the previous stage's Pick block over the closed
r-polydisc.  Certifying a candidate takes one owner call for its
phase-correct Gram block and one k x k ``eigvalsh`` call, and the audit
row records the certified margin.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import DomainError, NotCertifiedError, row_blocks
from .geometry import CrossingCurve, PointTable, crossing_scalar
from .rounding import PSD_TOL, coordinate_rel, rayleigh_bound

if TYPE_CHECKING:  # callers pass the handle, so kernels is never imported here
    from .kernels import KernelHandle

#: not a code path: perfbench/layers.py counts calls of this name in its
#: traced runs (always 0 now), so the name stays until that counter goes
_pivoted_cholesky_floor = None


def _as_table(points) -> PointTable:
    """``points`` as a table: a PointTable as it is, anything else as disc points."""
    return points if isinstance(points, PointTable) else PointTable(points)


class PickProblem:
    """Interpolation nodes, targets and a kernel handle.

    ``nodes`` is a :class:`~npdisclab.geometry.PointTable` or anything
    ``np.asarray`` reads as complex disc points; it is held as a table.
    ``kernel`` is a :class:`~npdisclab.kernels.KernelHandle`, evaluated at
    1 - <z_i, z_j>; ``kernels.hardy`` gives the Drury-Arveson kernel
    K = 1/(1 - <x, y>) on ball points.
    """

    def __init__(self, nodes, targets, kernel: KernelHandle):
        self.nodes = _as_table(nodes)
        self.targets = np.atleast_1d(np.asarray(targets, dtype=complex))
        self.kernel = kernel
        if not len(self.nodes):
            raise DomainError("nodes is empty: a Pick problem needs at least one node")
        if len(self.nodes) != self.targets.size:
            raise DomainError("node and target counts differ")
        if len(self.nodes) > 2000:
            raise DomainError("problem size capped at 2000 nodes")
        if not np.all(np.abs(self.targets) < 1.0):  # also refuses nan
            raise DomainError("all targets must lie in the open disc")
        if not np.all(self.nodes.interior):
            raise DomainError("all nodes must be interior points")
        pair = _first_coincident_pair(self.nodes)
        if pair is not None:
            raise DomainError(
                f"nodes {pair[0]} and {pair[1]} coincide; interpolation is ill-posed"
            )

    @property
    def size(self) -> int:
        return len(self.nodes)


def _first_coincident_pair(table: PointTable) -> tuple[int, int] | None:
    """Lexicographically first (i, j), i < j, of coinciding points, by row blocks.

    Points coincide when their zero-padded coordinates are equal and so are
    their gaps, a missing gap matching only a missing gap.  Blocks run in
    row order and each is searched row-major, so the first hit is the
    smallest.
    """
    z, gaps = table.coords, table.gaps
    no_gap = np.isnan(gaps)
    for rows in row_blocks(len(z), z.size):
        same = (
            ((gaps[rows, None] == gaps[None, :]) | (no_gap[rows, None] & no_gap[None, :]))
            & (z[rows, None, :] == z[None, :, :]).all(axis=2)
        )
        hits = np.argwhere(np.triu(same, rows.start + 1))
        if hits.size:
            return rows.start + int(hits[0, 0]), int(hits[0, 1])
    return None


def kernel_gram(nodes, kernel: KernelHandle) -> np.ndarray:
    """Hermitian kernel matrix [K(z_i, z_j)], upper triangle mirrored.

    ``nodes`` is a point table or disc points, as for :class:`PickProblem`.
    Row block by row block, 1 - <z_i, z_j> comes from the table in one
    call, with the exact gap algebra wherever both points are radial, and
    the kernel evaluates the block in one ``kernel_from_defect`` call.  The
    output serves as the scratch space for the defects, since the real-path
    choice needs all of them first: the entries take the real path only if
    no pair has an imaginary part.
    """
    table = _as_table(nodes)
    n = len(table)
    g = np.empty((n, n), dtype=complex)
    blocks = list(row_blocks(n, n))
    # first sweep: 1 - <z_i, z_j> into the rectangle right of each block's
    # diagonal; the entries below the diagonal are scratch, conjugates of
    # their mirror images, so they leave the real-path test unchanged
    complex_path = False
    for rows in blocks:
        a = rows.start
        g[rows, a:] = table.one_minus_inner(np.arange(a, rows.stop)[:, None],
                                            np.arange(a, n)[None, :])
        complex_path = complex_path or bool(g[rows, a:].imag.any())
    # second sweep: the kernel on each rectangle, mirrored from its own
    # values, the diagonal conjugated last; real data stays on the real path
    for rows in blocks:
        a, b = rows.start, rows.stop
        upper = kernel.kernel_from_defect(g[rows, a:] if complex_path else g[rows, a:].real)
        g[rows, a:] = upper
        g[b:, rows] = np.conj(upper[:, b - a:]).T
        square = upper[:, : b - a]
        g[rows, a:b] = np.where(np.tri(b - a, dtype=bool), np.conj(square).T, square)
    return g


def pick_matrix(p: PickProblem) -> np.ndarray:
    """The Pick matrix (1 - w_i conj(w_j)) K(z_i, z_j), Hermitian exactly.

    The target factor multiplies into the Gram matrix in place, row block
    by row block.
    """
    g = kernel_gram(p.nodes, p.kernel)
    w = p.targets
    for rows in row_blocks(p.size, p.size):
        np.multiply(1.0 - np.outer(w[rows], np.conj(w)), g[rows], out=g[rows])
    return g


class PsdVerdict(NamedTuple):
    """Spectral verdict for a Hermitian matrix.

    ``min_eigenvalue`` is the smallest ``eigvalsh`` eigenvalue at every
    size, so its sign and size mean the same thing for every matrix.
    """

    min_eigenvalue: float
    matrix_scale: float
    verdict: str  # "positive-definite" | "positive-semidefinite" | "indefinite"


def psd_check(m: np.ndarray) -> PsdVerdict:
    """Classify a Hermitian matrix via its spectrum.

    Positive-definite above +PSD_TOL * scale, indefinite below
    -PSD_TOL * scale, the boundary band in between; scale is the largest
    entry magnitude so kernel matrices with enormous boundary entries are
    judged relatively.  An empty matrix, or one with a nan or infinite
    entry, raises DomainError: it has no spectrum to judge.

    Finiteness, scale and asymmetry are read one row block at a time, so
    ``eigvalsh``'s own copy is the only other n x n array.  Block rows are
    compared with the columns up to the block's end, which covers every
    pair once up to the symmetry of |m_ij - conj(m_ji)|, and only with
    rows already found finite.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("expected a square matrix")
    if m.size == 0:
        raise DomainError("matrix is empty: an empty matrix has no spectrum to judge")
    scale = asym = 0.0
    for rows in row_blocks(*m.shape):
        block = m[rows]
        if not np.all(np.isfinite(block)):
            raise DomainError("matrix has non-finite entries")
        scale = max(scale, float(np.abs(block).max()))
        end = rows.stop
        asym = max(asym, float(np.abs(block[:, :end] - m[:end, rows].conj().T).max()))
    if asym > 1e-13 * max(scale, 1e-300):
        raise DomainError(f"matrix is not Hermitian (asymmetry {asym:.3g})")
    min_eig = float(np.linalg.eigvalsh(m).min())
    if min_eig > PSD_TOL * scale:
        verdict = "positive-definite"
    elif min_eig < -PSD_TOL * scale:
        verdict = "indefinite"
    else:
        verdict = "positive-semidefinite"
    return PsdVerdict(min_eig, scale, verdict)


# -- interpolating-subsequence extraction ------------------------------------


class ExtractionRow(NamedTuple):
    """Audit record for one accepted point."""

    k: int                  # stage (1-based)
    index: int              # position in the input list
    point_norm: float
    # certified lower bound on the smallest eigenvalue of every normalized
    # A_k(w) with |w_i| <= r (the Rayleigh margin less its rounding bound)
    min_eigenvalue: float
    # "initial" for index 0; "dominance" for a point that passed the scan
    # against the worst-case delta and then the certificate
    rule: str


class ExtractionResult(NamedTuple):
    indices: list[int]
    rows: list[ExtractionRow]


def _log_modulus(omt: np.ndarray, table: PointTable, rows, cols) -> np.ndarray:
    """-log |1 - <z_i, z_j>| of the owner's values ``omt`` on the pairs (rows, cols).

    Refuses the zeros np.log would turn into inf, naming the first point of
    those pairs whose exact gap underflowed to 0.0 where there is one.
    """
    mag = np.abs(omt)
    if not np.all(mag > 0.0):
        zero = ~(mag > 0.0)
        points = np.concatenate([np.broadcast_to(rows, mag.shape)[zero],
                                 np.broadcast_to(cols, mag.shape)[zero]])
        underflowed = points[table.gaps[points] == 0.0]
        if underflowed.size:
            raise DomainError(
                f"1 - <z_i, z_j> rounds to 0: the gap 1 - |z| of the point at index "
                f"{underflowed.min()} underflowed to 0.0, so it lies on the "
                f"sphere to double precision"
            )
        raise DomainError(
            "1 - <z_i, z_j> rounds to 0: a point without an exact gap lies on "
            "the sphere to double precision"
        )
    return -np.log(mag)


def _log_kernel(table: PointTable, rows, cols) -> np.ndarray:
    """log |K(z_i, z_j)| = -log |1 - <z_i, z_j>| over broadcast index arrays."""
    return _log_modulus(table.one_minus_inner(rows, cols), table, rows, cols)


def _correlation(log_block: np.ndarray) -> np.ndarray:
    """K_ij / sqrt(K_ii K_jj) = exp(l_ij - (l_ii + l_jj)/2) from a log kernel block.

    A real block -log |1 - <z_i, z_j>| gives the modulus; a complex block
    -log(1 - <z_i, z_j>) gives the phase too.  The diagonal is exactly 1.
    """
    diag = np.diag(log_block)
    return np.exp(log_block - 0.5 * (diag[:, None] + diag[None, :]))


def _normalized_gram(table: PointTable, idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """The normalized Gram matrix G of the points ``idx``, phases included.

    G_ij = exp(l_ij - (l_ii + l_jj)/2) conj(w_ij)/|w_ij| with
    w_ij = 1 - <z_i, z_j> from one owner call and l = -log |w|; G stays
    real where no w_ij has an imaginary part.  Returns G, l and
    ``coord_rel``, c eps/|w_ij| on the pairs the owner forms from d
    coordinates (c = d + 3; see :func:`~npdisclab.rounding.rayleigh_bound`)
    and 0 elsewhere.
    """
    omt = table.one_minus_inner(idx[:, None], idx[None, :])
    log_block = _log_modulus(omt, table, idx[:, None], idx[None, :])
    gram = _correlation(log_block)
    mag = np.abs(omt)
    if omt.imag.any():
        # conj(w)/|w| part by part: complex division by a subnormal |w| of
        # a radial pair would overflow to nan
        gram = gram * (omt.real / mag - 1j * (omt.imag / mag))
    gaps = table.radial_gaps[idx]
    coord_rel = coordinate_rel(table.coords.shape[1], mag, np.isnan(gaps[:, None] + gaps[None, :]))
    return gram, log_block, coord_rel


def _log_delta(sel_block: np.ndarray, r: float) -> float:
    """log det of the entrywise worst case of a Pick block over the closed r-polydisc.

    ``sel_block`` is the real log kernel block l of the k selected points.
    The worst case has (1 - r^2) K_ii on the diagonal and (1 + r^2) |K_ij|
    off it, the bounds the dominance scan applies to the candidate row, so
    its determinant is e^{tr l} (1 - r^2)^k det M with M = I + c (C - I),
    c = (1 + r^2)/(1 - r^2) and C = :func:`_correlation` of the block;
    log det M = 2 sum log diag(L) from one Cholesky call.  A block whose M
    is not positive definite gives -inf, so no candidate dominates it.
    """
    rsq = r * r
    m = (1.0 + rsq) / (1.0 - rsq) * _correlation(sel_block)
    np.fill_diagonal(m, 1.0)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return -math.inf
    return (2.0 * float(np.sum(np.log(np.diagonal(chol))))
            + len(m) * math.log1p(-rsq) + float(np.trace(sel_block)))


def _logsumexp(values: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis."""
    mx = values.max(axis=-1)
    return mx + np.log(np.sum(np.exp(values - mx[..., None]), axis=-1))


def extract_interpolating_subsequence(
    points,
    r: float,
    k_max: int,
) -> ExtractionResult:
    """Greedy extraction of a subsequence whose Pick matrices stay definite.

    ``points`` is a point table or disc points, as for :class:`PickProblem`.
    At stage k the candidate z is accepted once the dominant determinant
    term (1 - r^2) * delta * K(z, z) exceeds a Hadamard bound on all other
    last-row expansion terms, where delta is the determinant of the
    entrywise worst case of A_{k-1}(w) over the closed r-polydisc, from
    :func:`_log_delta`.  A candidate that passes dominance is accepted only
    when the Rayleigh margin lambda_min(G) - r^2 lambda_max(G) of its trial
    block's phase-correct normalized Gram matrix G, less
    :func:`~npdisclab.rounding.rayleigh_bound`, exceeds ``PSD_TOL``; that
    proves every normalized A_k(w), |w_i| <= r, positive definite with
    smallest eigenvalue at least the margin, which the audit row records.
    Candidates are tried in order, and one that is not certified is skipped.

    The worst-case delta need not bound the infimum of det A_{k-1}(w), so
    dominance can fire earlier than the proof's asymptotic rule would; the
    certificate keeps the output sound.  A worst case that is not positive
    definite gives delta = 0, and no candidate passes dominance.  The output
    depends on the points, r and k_max alone.  Raises NotCertifiedError
    when no candidate passes dominance, and a distinct one when candidates
    pass it but none is certified.
    """
    table = _as_table(points)
    if not 0.0 < r < 1.0:
        raise DomainError("target radius r must lie in (0, 1)")
    if not 1 <= k_max <= 50:
        raise DomainError("k_max must lie in 1..50")
    if not len(table):
        raise DomainError("point list is empty: extraction needs points approaching the boundary")
    norms = table.norms
    if norms[-1] <= 0.9:
        raise DomainError("point list must approach the boundary (final norm > 0.9)")

    log_one_minus_rsq = math.log1p(-r * r)
    log_one_plus_rsq = math.log1p(r * r)

    selected = [0]
    rows = [ExtractionRow(1, 0, float(norms[0]), 1.0, "initial")]

    for k in range(2, k_max + 1):
        idx = np.array(selected)
        sel_block = _log_kernel(table, idx[:, None], idx[None, :])

        # vectorized dominance scan over all remaining candidates
        cands = np.arange(selected[-1] + 1, len(table))
        if cands.size == 0:
            raise NotCertifiedError(
                f"point list exhausted at stage {k}: no candidates remain"
            )
        log_kzz = _log_kernel(table, cands, cands)
        log_kc = _log_kernel(table, cands[:, None], idx[None, :])
        lhs = log_one_minus_rsq + _log_delta(sel_block, r) + log_kzz
        # Hadamard bound on the remaining last-row expansion terms: for the
        # term dropping column `drop`, each minor row i mixes fixed selected
        # entries with the single candidate-dependent entry K(z_i, z);
        # fixed_sum[i, drop] is the logsumexp of row i's fixed entries
        # without column `drop`, and the minor rows add up in order of i
        n_sel = k - 1
        fixed = 2.0 * (log_one_plus_rsq + sel_block)
        others = np.nonzero(~np.eye(n_sel, dtype=bool))[1].reshape(n_sel, n_sel - 1)
        fixed_sum = _logsumexp(fixed[:, others]) if n_sel > 1 else np.full((1, 1), -math.inf)
        cand_ent = 2.0 * (log_one_plus_rsq + log_kc)
        log_minor = np.zeros((cands.size, n_sel))
        for i in range(n_sel):
            log_minor += 0.5 * np.logaddexp(fixed_sum[i], cand_ent[:, i, None])
        rhs_terms = log_one_plus_rsq + log_kc + log_minor
        rhs = _logsumexp(rhs_terms)

        # dominance fired; certify each candidate in turn by the Rayleigh
        # margin of its trial block, one eigvalsh call for both extremes
        passed = np.nonzero(lhs > rhs)[0]
        accepted, best = None, -math.inf
        for pos in passed:
            cand = int(cands[pos])
            gram, log_block, coord_rel = _normalized_gram(table, np.append(idx, cand))
            eig = np.linalg.eigvalsh(gram)
            margin = float(eig[0] - r * r * eig[-1]) - rayleigh_bound(gram, log_block, coord_rel)
            if margin > PSD_TOL:
                accepted = cand
                break
            best = max(best, margin)
        if accepted is None and passed.size:
            raise NotCertifiedError(
                f"stage {k}: {passed.size} candidate(s) after index {selected[-1]} "
                f"passed dominance but none was certified; the largest Rayleigh "
                f"margin was {best:.6g}, not above {PSD_TOL:g}"
            )
        if accepted is None:
            raise NotCertifiedError(
                f"point list exhausted at stage {k}: no candidate after index "
                f"{selected[-1]} passed dominance; the norms may approach the "
                f"boundary too slowly for this truncation"
            )
        selected.append(accepted)
        rows.append(ExtractionRow(k, accepted, float(norms[accepted]), margin, "dominance"))
    return ExtractionResult(selected, rows)


# -- boundary-crossing obstruction -------------------------------------------


class CrossingObstruction(NamedTuple):
    """Determinant test at the pinch points of the crossing curve.

    ``det`` is the 2x2 Pick determinant for the candidate multiplier
    h = f^{-1}/C evaluated through h(f(z)) = z/C; ``lhs``/``rhs`` are the
    two sides of the cleared-denominator inequality that positivity would
    force, and ``kernel_ratio`` the normalized-kernel product that tends
    to 1 at the pinch.
    """

    det: float
    lhs: float
    rhs: float
    kernel_ratio: float
    scalar_s: float


def crossing_determinant(r: float, big_c: float, x: float) -> CrossingObstruction:
    """Pick obstruction for inverting the boundary-crossing curve.

    Nodes f(1-x) and f(-1+sx) on the two-ball kernel, targets (1-x)/C and
    (-1+sx)/C.  A valid norm-C inverse multiplier would force det >= 0 and
    lhs <= rhs; both fail for every C > 1 once x is small.  Raises
    DomainError unless C is finite and lhs and rhs stay finite, and when x
    is so small that a pinch point rounds onto the unit circle.
    """
    if not 0.0 < x < 0.1:
        raise DomainError("x must lie in (0, 0.1)")
    if not 1.0 < big_c < math.inf:
        raise DomainError("candidate multiplier norm must be finite and exceed 1")
    curve = CrossingCurve(r)
    s = crossing_scalar(curve)
    z1, z2 = 1.0 - x, -1.0 + s * x
    for name, z in (("1 - x", z1), ("-1 + s x", z2)):
        if abs(z) == 1.0:
            raise DomainError(f"x={x!r} is too small: the pinch point {name} rounds to {z!r}, "
                             "on the unit circle")
    # real for real arguments
    om1, om2, om12 = 1.0 - curve.inner(np.array([z1, z2, z1]), np.array([z1, z2, z2])).real
    t1, t2 = z1 / big_c, z2 / big_c
    k11, k22, k12 = 1.0 / om1, 1.0 / om2, 1.0 / om12
    det = (1.0 - t1 * t1) * (1.0 - t2 * t2) * k11 * k22 - (1.0 - t1 * t2) ** 2 * k12**2
    csq = big_c * big_c
    try:
        lhs = (csq + (1.0 - x) * (1.0 - s * x)) ** 2 * om1 * om2
        rhs = (csq - (1.0 - x) ** 2) * (csq - (1.0 - s * x) ** 2) * om12**2
    except OverflowError:
        lhs = rhs = math.inf
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise DomainError(f"C={big_c!r} is too large: lhs and rhs overflow")
    kernel_ratio = om1 * om2 / om12**2
    return CrossingObstruction(det, lhs, rhs, kernel_ratio, s)
