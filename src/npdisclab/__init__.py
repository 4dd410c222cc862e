"""Numerical laboratory for multiplier algebras of embedded discs.

Subpackages cover: truncated series arithmetic between embedding moduli and
kernel weights (``series``), kernel families and isomorphism classification
(``kernels``), pseudohyperbolic geometry of the ball (``geometry``), Pick
matrices and interpolating-subsequence extraction (``pick``), disc-sequence
diagnostics (``sequences``), the tangential conformal-chain embedding
(``tangential``), and a reproducible CSV experiment runner (``cli``).

Every layer fails through the two classes below; any other exception is a
bug in npdisclab.
"""

__version__ = "0.1.0"

#: most entries one row block of a temporary holds (a block always takes at
#: least one row): pairwise layers, the hs generating sum, the tangential
#: grid and the CSV writer work block by block, so their temporaries grow
#: with this size, not with the input; a writer block of this many cells
#: holds its 56-byte fields plus the Schubfach uint64 temporaries, under
#: 4 MiB in all, and drops the fields' NUL padding through a boolean mask
BLOCK_ENTRIES = 2**14


def row_blocks(n_rows: int, row_len: int):
    """Consecutive row slices covering ``range(n_rows)``, each of at most
    ``BLOCK_ENTRIES`` entries for rows of ``row_len`` entries, at least one row."""
    step = max(1, BLOCK_ENTRIES // max(row_len, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


class DomainError(ValueError):
    """An input outside its documented domain (CLI exit code 3)."""


class NotCertifiedError(RuntimeError):
    """A computation ran but could not certify its result (CLI exit code 5)."""
