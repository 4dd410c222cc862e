"""Pick matrices, solvability tests and interpolating-subsequence extraction.

For nodes z_i, targets w_i and a kernel K the Pick matrix is

    A[i, j] = (1 - w_i conj(w_j)) K(z_i, z_j),

positive semidefiniteness of which characterizes solvability of the
interpolation problem on a complete-Pick kernel.  :func:`psd_check` reads
it from one spectral call at every size, the smallest ``eigvalsh``
eigenvalue.  The extractor walks a boundary-bound point list and keeps a
point once a single determinant term (1 - r^2) delta K(z, z) provably
dominates the remaining expansion terms, the dominance being certified
through Hadamard bounds; every acceptance is re-verified by explicit
positive-definiteness checks over a target sample.

Everything works on arrays, and every 1 - <z_i, z_j> comes from one owner,
:meth:`~npdisclab.geometry.PointTable.one_minus_inner`, which keeps the
exact gap algebra for radial points.  Pairwise and stacked work runs in the
row blocks of :func:`~npdisclab.geometry.row_blocks`, so temporaries stay
within ``BLOCK_ENTRIES`` entries whatever the node count.  The Gram matrix
takes the owner once per row block of its upper triangle and evaluates the
caller's handle on the block in one ``kernel_from_defect`` call: closed
forms (hardy, Drury-Arveson on ball points, and geometric), the series by
Horner otherwise.  It is the only n x n array besides ``eigvalsh``'s copy.
The coincidence check is one broadcast comparison per row block.  Each
extractor stage reads its log kernel blocks -log |1 - <z_i, z_j>| from the
owner in one broadcast call per block and stacks each target sample into
(S, k, k) chunks, real polydisc corners and complex random draws apart.  The
delta estimate needs only log determinants, 2 sum log diag(L), from one
batched Cholesky call per chunk; verifying a candidate makes one
``eigvalsh`` call per chunk, and the audit row records the smallest
eigenvalue over all of them.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .geometry import BallPoint, PointTable, crossing_map, crossing_scalar, row_blocks

if TYPE_CHECKING:  # callers pass the handle, so kernels is never imported here
    from .kernels import KernelHandle

#: relative eigenvalue tolerance separating the three verdict zones
PSD_TOL = 1e-10

#: not a code path: perfbench/layers.py counts calls of this name in its
#: traced runs (always 0 now), so the name stays until that counter goes
_pivoted_cholesky_floor = None

#: extractor target samples: all polydisc corners up to this many, else a
#: random draw of this many corners
_CORNER_CAP = 512

#: extractor target samples: uniform complex draws per sample
_N_RANDOM_TARGETS = 256


class PickProblemError(ValueError):
    """Ill-posed interpolation data."""


class ExtractionExhaustedError(RuntimeError):
    """The point list ended before the requested subsequence was complete."""


def _as_ball_point(node) -> BallPoint:
    if isinstance(node, BallPoint):
        return node
    return BallPoint([complex(node)])


class PickProblem:
    """Interpolation nodes, targets and a kernel handle.

    ``kernel`` is a :class:`~npdisclab.kernels.KernelHandle`, evaluated at
    1 - <z_i, z_j>; ``kernels.hardy`` gives the Drury-Arveson kernel
    K = 1/(1 - <x, y>) on ball points.
    """

    def __init__(self, nodes, targets, kernel: KernelHandle):
        self.nodes = [_as_ball_point(z) for z in nodes]
        self.targets = np.atleast_1d(np.asarray(targets, dtype=complex))
        self.kernel = kernel
        if not self.nodes:
            raise PickProblemError("nodes is empty: a Pick problem needs at least one node")
        if len(self.nodes) != self.targets.size:
            raise PickProblemError("node and target counts differ")
        if len(self.nodes) > 2000:
            raise PickProblemError("problem size capped at 2000 nodes")
        if not np.all(np.abs(self.targets) < 1.0):  # also refuses nan
            raise PickProblemError("all targets must lie in the open disc")
        for p in self.nodes:
            if not p.is_interior:
                raise PickProblemError("all nodes must be interior points")
        pair = _first_coincident_pair(self.nodes)
        if pair is not None:
            raise PickProblemError(
                f"nodes {pair[0]} and {pair[1]} coincide; interpolation is ill-posed"
            )

    @property
    def size(self) -> int:
        return len(self.nodes)


def _first_coincident_pair(pts: list[BallPoint]) -> tuple[int, int] | None:
    """Lexicographically first (i, j), i < j, of coinciding points, by row blocks.

    Points coincide when they have the same dimension and equal coordinates
    and, if either carries an exact gap, equal gaps.  Blocks run in row
    order and each is searched row-major, so the first hit is the smallest.
    """
    dims = np.array([p.coords.size for p in pts])
    has_gap = np.array([p.gap is not None for p in pts])
    gaps = np.array([0.0 if p.gap is None else p.gap for p in pts])
    z = PointTable(pts).coords
    for rows in row_blocks(len(pts), z.size):
        same = (
            (dims[rows, None] == dims[None, :])
            & (has_gap[rows, None] == has_gap[None, :])
            & (gaps[rows, None] == gaps[None, :])
            & (z[rows, None, :] == z[None, :, :]).all(axis=2)
        )
        hits = np.argwhere(np.triu(same, rows.start + 1))
        if hits.size:
            return rows.start + int(hits[0, 0]), int(hits[0, 1])
    return None


def kernel_gram(nodes, kernel: KernelHandle) -> np.ndarray:
    """Hermitian kernel matrix [K(z_i, z_j)], upper triangle mirrored.

    Row block by row block, 1 - <z_i, z_j> comes from the point table in one
    call, with the exact gap algebra wherever both points are radial and
    real, and the kernel evaluates the block in one ``kernel_from_defect``
    call.  The output serves as the scratch space for the defects, since
    the real-path choice needs all of them first: the entries take the real
    path only if no pair has an imaginary part.
    """
    pts = [_as_ball_point(z) for z in nodes]
    n = len(pts)
    table = PointTable(pts)
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
    entry, raises ValueError: it has no spectrum to judge.

    Finiteness, scale and asymmetry are read one row block at a time, so
    ``eigvalsh``'s own copy is the only other n x n array.  Block rows are
    compared with the columns up to the block's end, which covers every
    pair once up to the symmetry of |m_ij - conj(m_ji)|, and only with
    rows already found finite.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if m.size == 0:
        raise ValueError("matrix is empty: an empty matrix has no spectrum to judge")
    scale = asym = 0.0
    for rows in row_blocks(*m.shape):
        block = m[rows]
        if not np.all(np.isfinite(block)):
            raise ValueError("matrix has non-finite entries")
        scale = max(scale, float(np.abs(block).max()))
        end = rows.stop
        asym = max(asym, float(np.abs(block[:, :end] - m[:end, rows].conj().T).max()))
    if asym > 1e-13 * max(scale, 1e-300):
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3g})")
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
    min_eigenvalue: float   # worst normalized eigenvalue over the sample
    rule: str               # "initial" | "dominance"


class ExtractionResult(NamedTuple):
    indices: list[int]
    rows: list[ExtractionRow]


def _log_kernel(table: PointTable, rows, cols) -> np.ndarray:
    """log |K(z_i, z_j)| = -log |1 - <z_i, z_j>| over broadcast index arrays.

    Refuses the zeros np.log would turn into inf.
    """
    mag = np.abs(table.one_minus_inner(rows, cols))
    if not np.all(mag > 0.0):
        raise ValueError(
            "1 - <z_i, z_j> rounds to 0: a point without an exact gap lies on "
            "the sphere to double precision"
        )
    return -np.log(mag)


def _target_sample(k: int, r: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Corner sign patterns of the r-polydisc plus uniform complex draws.

    Returns the real corners and the complex draws as two (S, k) stacks, so
    each keeps its own dtype through the eigenvalue checks.  The uniform
    draws are laid out (S, 2, k) so that each row takes its k magnitudes and
    then its k phases in stream order.
    """
    if 2**k <= _CORNER_CAP:
        corners = np.array(list(itertools.product((r, -r), repeat=k)))
    else:
        corners = r * rng.choice((-1.0, 1.0), size=(_CORNER_CAP, k))
    u = rng.uniform(size=(_N_RANDOM_TARGETS, 2, k))
    draws = r * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    return corners, draws


def _normalized_pick(log_block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Diagonally rescaled Pick blocks: unit diagonal, entries O(1).

    ``w`` is one target vector of length k or an (S, k) stack of them; the
    result is (k, k) or (S, k, k), formed in place in one array beside the
    real (S, k, k) normalizer.  Congruence keeps definiteness while
    avoiding the e^{n^2} dynamic range of raw kernel entries near the
    boundary.
    """
    diag = np.diag(log_block)
    corr = np.exp(log_block - 0.5 * (diag[:, None] + diag[None, :]))
    om = 1.0 - np.abs(w) ** 2
    b = w[..., :, None] * np.conj(w)[..., None, :]
    np.subtract(1.0, b, out=b)
    norm = om[..., :, None] * om[..., None, :]
    b /= np.sqrt(norm, out=norm)
    np.multiply(corr, b, out=b)
    b[..., np.arange(diag.size), np.arange(diag.size)] = 1.0
    return b


def _sample_chunks(sample: tuple[np.ndarray, np.ndarray], k: int):
    """The (S, k) target stacks of a sample, each dtype group in chunks whose
    (S, k, k) Pick stacks hold at most ``BLOCK_ENTRIES`` entries."""
    for w in sample:
        for rows in row_blocks(len(w), k * k):
            yield w[rows]


def _logsumexp(values: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis."""
    mx = values.max(axis=-1)
    return mx + np.log(np.sum(np.exp(values - mx[..., None]), axis=-1))


def extract_interpolating_subsequence(
    points,
    r: float,
    k_max: int,
    *,
    seed: int,
) -> ExtractionResult:
    """Greedy extraction of a subsequence whose Pick matrices stay definite.

    At stage k the candidate z is accepted once the dominant determinant
    term (1 - r^2) * delta * K(z, z) exceeds a Hadamard bound on all other
    last-row expansion terms, where delta estimates the infimum of
    det A_{k-1}(w) over the sampled targets (polydisc corners plus seeded
    random draws).  Acceptance is then re-verified on a fresh sample of
    targets w in the k-polydisc: the smallest eigenvalue (``eigvalsh``) of
    every normalized A_k(w) must exceed ``PSD_TOL``.

    The sampled delta may over-estimate the true infimum, so acceptance can
    fire earlier than the proof's asymptotic rule would; the verification
    step and the per-row audit trail keep the output sound and traceable.
    """
    pts = [_as_ball_point(z) for z in points]
    if not 0.0 < r < 1.0:
        raise ValueError("target radius r must lie in (0, 1)")
    if not 1 <= k_max <= 50:
        raise ValueError("k_max must lie in 1..50")
    if not pts:
        raise ValueError("point list is empty: extraction needs points approaching the boundary")
    if pts[-1].norm <= 0.9:
        raise ValueError("point list must approach the boundary (final norm > 0.9)")

    rng = np.random.default_rng(np.random.Philox(seed))
    table = PointTable(pts)
    log_one_minus_rsq = math.log1p(-r * r)
    log_one_plus_rsq = math.log1p(r * r)

    selected = [0]
    rows = [ExtractionRow(1, 0, pts[0].norm, 1.0, "initial")]

    for k in range(2, k_max + 1):
        idx = np.array(selected)
        sel_block = _log_kernel(table, idx[:, None], idx[None, :])
        # delta estimate: smallest determinant of the previous stage over
        # the sample, assembled in log space from the normalized blocks, one
        # batched Cholesky call per sample chunk
        log_delta = math.inf
        for w in _sample_chunks(_target_sample(k - 1, r, rng), k - 1):
            try:
                chol = np.linalg.cholesky(_normalized_pick(sel_block, w))
            except np.linalg.LinAlgError:
                raise ExtractionExhaustedError(
                    f"stage {k - 1} block lost definiteness during sampling"
                ) from None
            log_diag = np.log(np.diagonal(chol, axis1=1, axis2=2).real)
            log_det = (2.0 * np.sum(log_diag, axis=1)
                       + np.sum(np.log1p(-np.abs(w) ** 2), axis=1)
                       + np.trace(sel_block))
            log_delta = min(log_delta, float(log_det.min()))

        # vectorized dominance scan over all remaining candidates
        cands = np.arange(selected[-1] + 1, len(pts))
        if cands.size == 0:
            raise ExtractionExhaustedError(
                f"point list exhausted at stage {k}: no candidates remain"
            )
        log_kzz = _log_kernel(table, cands, cands)
        log_kc = _log_kernel(table, cands[:, None], idx[None, :])
        lhs = log_one_minus_rsq + log_delta + log_kzz
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

        accepted = None
        for pos in np.nonzero(lhs > rhs)[0]:
            cand = int(cands[pos])
            # dominance fired; certify definiteness over a fresh k-target sample
            trial = np.append(idx, cand)
            trial_block = _log_kernel(table, trial[:, None], trial[None, :])
            min_eig_seen = min(
                (float(np.linalg.eigvalsh(_normalized_pick(trial_block, w)).min())
                 for w in _sample_chunks(_target_sample(k, r, rng), k)),
                default=math.inf,
            )
            if min_eig_seen > PSD_TOL:
                accepted = cand
                break
        if accepted is None:
            raise ExtractionExhaustedError(
                f"point list exhausted at stage {k}: no candidate after index "
                f"{selected[-1]} passed dominance; the norms may approach the "
                f"boundary too slowly for this truncation"
            )
        selected.append(accepted)
        rows.append(
            ExtractionRow(k, accepted, pts[accepted].norm, min_eig_seen, "dominance")
        )
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
    ValueError unless C is finite and lhs and rhs stay finite, and when x
    is so small that a pinch point rounds onto the unit circle.
    """
    if not 0.0 < x < 0.1:
        raise ValueError("x must lie in (0, 0.1)")
    if not 1.0 < big_c < math.inf:
        raise ValueError("candidate multiplier norm must be finite and exceed 1")
    curve = crossing_map(r)
    s = crossing_scalar(curve)
    z1, z2 = 1.0 - x, -1.0 + s * x
    for name, z in (("1 - x", z1), ("-1 + s x", z2)):
        if abs(z) == 1.0:
            raise ValueError(f"x={x!r} is too small: the pinch point {name} rounds to {z!r}, "
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
        raise ValueError(f"C={big_c!r} is too large: lhs and rhs overflow")
    kernel_ratio = om1 * om2 / om12**2
    return CrossingObstruction(det, lhs, rhs, kernel_ratio, s)
