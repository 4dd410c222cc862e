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


class DomainError(ValueError):
    """An input outside its documented domain (CLI exit code 3)."""


class NotCertifiedError(RuntimeError):
    """A computation ran but could not certify its result (CLI exit code 5)."""
