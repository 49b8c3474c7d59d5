"""Exception types shared across the package."""


class GrassmannError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(GrassmannError, ValueError):
    """Operands have incompatible shapes, ambient dimensions, or scalar fields:
    two operands from different spaces (subspaces, blades or contractions),
    complex data or a complex blade coefficient over the reals, ragged or
    non-1-D basis vectors, a coordinate basis that is not n x n."""


class MultiIndexError(GrassmannError, IndexError):
    """A multi-index is not strictly increasing or leaves its ambient range."""


class SingularPivotError(GrassmannError, ArithmeticError):
    """The pivot block of a Schur determinant evaluation is numerically singular."""


class DegenerateBasisError(GrassmannError, ValueError):
    """A basis list is linearly dependent (or too ill-conditioned to use)."""


class NumericalConsistencyError(GrassmannError, ArithmeticError):
    """A quantity that must be real/nonnegative came out wrong beyond tolerance.

    This signals a bug or catastrophic cancellation, not ordinary round-off:
    ordinary round-off is silently clamped.
    """


class DomainError(GrassmannError, ValueError):
    """Input is outside an operation's mathematical domain (zero vector,
    zero subspace, grade mismatch, non-orthogonal partition, U not inside V...),
    past a size cap (ambient dimension, blade grade, the Laplace oracle's
    10x10), or an option outside its range (a Tolerance eps, a Schur pivot)."""


class DocumentError(GrassmannError, ValueError):
    """A JSON input document is malformed or refers to unknown names."""
