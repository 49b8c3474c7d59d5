"""Ground field tag and the central tolerance policy.

Every value in the package lives over one of two scalar fields: the reals
(float64) or the complex numbers (complex128, Hermitian inner product with
conjugate-linearity in the first argument).  Mixing fields is an error, never
a silent promotion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, DimensionMismatchError, DomainError


class Field(enum.Enum):
    """Scalar field of the ambient space."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self is Field.COMPLEX else np.float64)

    def conj(self, x):
        """Field conjugation: identity on the reals, complex conjugate otherwise."""
        return np.conjugate(x) if self is Field.COMPLEX else x


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy knobs used throughout the package.

    rank_eps      relative singular-value cutoff for rank decisions
    residual_eps  pass threshold for identity checks and cross-method residuals
    """

    rank_eps: float = 1e-10
    residual_eps: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.rank_eps < 1.0):
            raise ValueError(f"rank_eps must be in (0, 1), got {self.rank_eps}")
        if not (0.0 < self.residual_eps < 1.0):
            raise ValueError(f"residual_eps must be in (0, 1), got {self.residual_eps}")


DEFAULT_TOLERANCE = Tolerance()

# Gram matrices with condition number above this are rejected as degenerate
# by the basis-formula angle routines.
GRAM_CONDITION_LIMIT = 1e12

# cos^2 values below this are treated as a consistency failure rather than
# round-off; values in [-NEGATIVE_COS_SQ_SLACK, 0) are clamped silently.
NEGATIVE_COS_SQ_SLACK = 1e-9

# Names of the identity suites of ``identities.run_suite``, in the order it
# runs them and derives their seeds from.  Kept here, in a module every other
# one imports, so the CLI can offer them without loading ``identities``.
SUITE_NAMES = (
    "line-partition",
    "pythagorean",
    "binomial",
    "oriented-sum",
    "weighted-average",
    "direct-sum",
    "partition-chain",
    "converse",
)


def as_field_array(data, field: Field) -> np.ndarray:
    """Coerce array-like data to the dtype of ``field``, copying only when the
    dtype changes: the result may be ``data`` itself (see ``unshared``).

    Complex data in a REAL context raises instead of silently dropping the
    imaginary parts.
    """
    arr = np.asarray(data)
    if field is Field.REAL and np.iscomplexobj(arr):
        raise DimensionMismatchError("complex entries are not allowed over the real field")
    return arr.astype(field.dtype, copy=False)


def unshared(arr: np.ndarray, source) -> np.ndarray:
    """``arr``, coerced from the caller's ``source`` by ``as_field_array``,
    copied when that shared the caller's memory (an ndarray source whose
    dtype needed no change), so that an object storing it does not change
    when the caller's array does."""
    return arr.copy(order="K") if isinstance(source, np.ndarray) and arr.dtype == source.dtype else arr


def as_basis(vectors, field: Field | None = None, ambient_dim: int | None = None) -> tuple[np.ndarray, Field]:
    """Basis vectors as matrix columns over ``field`` (inferred when None).

    A 2-D array passes through; a sequence of 1-D vectors is stacked as
    columns.  An empty sequence needs ``ambient_dim``, else it raises
    DegenerateBasisError.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        mat = vectors
    else:
        cols = [np.asarray(v) for v in vectors]
        if any(c.ndim != 1 for c in cols):
            raise DomainError("basis vectors must be 1-D")
        if cols:
            mat = np.column_stack(cols)
        elif ambient_dim is None:
            raise DegenerateBasisError("an empty basis needs an explicit ambient dimension")
        else:
            mat = np.zeros((ambient_dim, 0))
    if field is None:
        field = Field.COMPLEX if np.iscomplexobj(mat) else Field.REAL
    return as_field_array(mat, field), field
