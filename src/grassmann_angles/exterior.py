"""Blades, multi-index combinatorics, wedge products, and contractions.

A blade is kept as its list of vector factors (columns of an ``(n, p)``
array) plus a scalar weight; it is never expanded into ``C(n, p)``
coordinates.  Norms and inner products are read off the unit frame
F = QR of the factors (``_unit_frame``), conjugate-linear in the first
argument over the complex field.  Grade-0 blades are scalars with an empty
factor list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

import numpy as np

from .errors import DomainError, MultiIndexError, NumericalConsistencyError
from .fields import DEFAULT_TOLERANCE, Field, Tolerance, as_basis, unshared
from .linalg import _column_exponents, det, gram, orthonormalize

# Combinatorial guard rails: C(16, 8) = 12870 keeps every enumeration cheap.
AMBIENT_LIMIT = 16
GRADE_LIMIT = 16


@dataclass(frozen=True)
class MultiIndex:
    """Strictly increasing tuple of 1-based indices inside [1, ambient].

    The empty tuple is the single grade-0 index; its weight is 0 and its
    complement is the full range.
    """

    indices: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if self.ambient < 0:
            raise MultiIndexError(f"ambient must be nonnegative, got {self.ambient}")
        if any(i < 1 or i > self.ambient for i in self.indices):
            raise MultiIndexError(f"indices {self.indices} out of range [1, {self.ambient}]")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise MultiIndexError(f"indices {self.indices} are not strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    @property
    def weight(self) -> int:
        """Sum of the 1-based indices."""
        return sum(self.indices)

    def complement(self) -> "MultiIndex":
        """The increasing tuple of indices of [1, ambient] not in this one."""
        chosen = set(self.indices)
        return MultiIndex(tuple(i for i in range(1, self.ambient + 1) if i not in chosen), self.ambient)

    def zero_based(self) -> list[int]:
        return [i - 1 for i in self.indices]


def multi_indices(p: int, q: int) -> list[MultiIndex]:
    """All C(q, p) strictly increasing p-tuples in [1, q], lexicographic.

    For p = 0 this is the single empty index; for p > q it is empty.
    """
    if p < 0 or q < 0:
        raise MultiIndexError(f"sizes must be nonnegative, got p={p}, q={q}")
    if p > q:
        return []
    return [MultiIndex(c, q) for c in combinations(range(1, q + 1), p)]


def sigma_sign(index: MultiIndex) -> int:
    """Sign making ``omega = sigma * omega_I ^ omega_Ihat`` hold identically.

    Equals the parity of the permutation that concatenates the index with its
    complement: ``(-1) ** (weight + p(p+1)/2)`` for a p-element index.
    """
    p = len(index)
    return -1 if (index.weight + p * (p + 1) // 2) % 2 else 1


class Blade:
    """A decomposed exterior product ``coefficient * (f_1 ^ ... ^ f_p)``.

    ``factors`` is an ``(ambient_dim, grade)`` array whose columns are the
    vector factors.  The blade is zero exactly when its factors are linearly
    dependent (or the coefficient vanishes), which is decided by the rank rule
    of ``orthonormalize`` (see ``_unit_frame``) rather than stored.
    """

    __slots__ = ("factors", "field", "coefficient")

    def __init__(self, factors, field: Field | None = None, coefficient=1.0, ambient_dim: int | None = None):
        mat, field = as_basis(factors, field, ambient_dim)
        mat = unshared(mat, factors)
        if mat.shape[0] > AMBIENT_LIMIT:
            raise DomainError(f"ambient dimension {mat.shape[0]} exceeds the cap of {AMBIENT_LIMIT}")
        if mat.shape[1] > GRADE_LIMIT:
            raise DomainError(f"grade {mat.shape[1]} exceeds the cap of {GRADE_LIMIT}")
        if field is Field.COMPLEX:
            coefficient = complex(coefficient)
        else:
            c = complex(coefficient)
            if c.imag != 0.0:
                raise DomainError("complex coefficient over the real field")
            coefficient = c.real
        self.factors = mat
        self.field = field
        self.coefficient = coefficient

    @classmethod
    def scalar(cls, value, ambient_dim: int, field: Field) -> "Blade":
        """Grade-0 blade: a bare scalar."""
        return cls([], field=field, coefficient=value, ambient_dim=ambient_dim)

    @property
    def grade(self) -> int:
        return self.factors.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.factors.shape[0]

    def norm(self, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
        return blade_norm(self, tol)

    def is_zero(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Numerical zero test: a zero coefficient, or a factor within rank_eps
        of the span of the factors before it (the rank rule of orthonormalize,
        which scales each extreme factor first); the one zero rule of this module."""
        return _unit_frame(self, tol) is None

    def __repr__(self):
        return f"Blade(grade={self.grade}, ambient={self.ambient_dim}, field={self.field.value})"


def _require_compatible(a: Blade, b: Blade):
    if a.field is not b.field:
        raise DomainError(f"mixed scalar fields: {a.field.value} vs {b.field.value}")
    if a.ambient_dim != b.ambient_dim:
        raise DomainError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")


def _unit_frame(blade: Blade, tol: Tolerance) -> tuple[complex | float, np.ndarray] | None:
    """``(c / |c|, Q)`` for the blade ``c * (f_1 ^ ... ^ f_p)``, with Q from
    ``orthonormalize(F)``; None for a zero blade (c = 0, or rank < grade).
    F = QR with R's diagonal real and positive, so the unit blade is
    ``(c / |c|) * (q_1 ^ ... ^ q_p)`` on any scale."""
    if blade.coefficient == 0:
        return None
    if not math.isfinite(abs(blade.coefficient)):
        raise DomainError("blade coefficient must be finite (no NaN or infinity)")
    q, rank = orthonormalize(blade.factors, tol)
    if rank < blade.grade:
        return None
    return blade.coefficient / abs(blade.coefficient), q


def wedge(a: Blade, b: Blade) -> Blade:
    """Exterior product; grade-0 blades act as scalar multipliers."""
    _require_compatible(a, b)
    return Blade(
        np.hstack([a.factors, b.factors]),
        field=a.field,
        coefficient=a.coefficient * b.coefficient,
        ambient_dim=a.ambient_dim,
    )


def _oriented_cos_of_frames(frame_a, frame_b) -> complex | float:
    """The oriented cosine ``conj(phase_a) phase_b det(Q_a* Q_b)`` of two ``_unit_frame`` results."""
    if frame_a is None or frame_b is None:
        raise DomainError("oriented angle is undefined for zero blades")
    (phase_a, q_a), (phase_b, q_b) = frame_a, frame_b
    return phase_a.conjugate() * phase_b * det(gram(q_a, q_b))


def _polars(blades: list[Blade], tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(phase, norm, Q)`` stacked over blades of one grade from each
    ``_unit_frame`` (c/|c|, Q), with norm |c| prod r_jj for r_jj = <q_j, f_j>
    > 0; a zero blade has phase 0, norm 0.0 and Q = 0.  Each factor is scaled
    by a power of two and the products run over mantissas and exponents, so
    no step over- or underflows before a norm does."""
    frames = [_unit_frame(blade, tol) or (0.0, np.zeros_like(blade.factors)) for blade in blades]
    phase = np.array([frame[0] for frame in frames], dtype=blades[0].field.dtype)
    q, f = np.stack([frame[1] for frame in frames]), np.stack([blade.factors for blade in blades])
    s = _column_exponents(f)
    m, r_exp = np.frexp(np.einsum("bij,bij->bj", q.conj(), f * np.ldexp(1.0, s)[:, None]).real)
    cm, ce = np.frexp([abs(blade.coefficient) for blade in blades])
    m, e = np.frexp(cm * m.prod(axis=1))
    e += ce + (r_exp - s).sum(axis=1)
    if (e[m > 0] > 1024).any():
        raise NumericalConsistencyError("blade norm is too large for a float")
    return phase, np.ldexp(m, e), q


def blade_inner(a: Blade, b: Blade) -> complex | float:
    """Inner product of blades, the Gram determinant ``det(<a_i, b_j>)``, as
    ``|a| |b|`` times the oriented cosine of their unit frames.

    Blades of distinct grades are orthogonal, and so are zero blades (by the
    default rule of ``Blade.is_zero``).  Conjugate-linear in the first
    argument over the complex field.
    """
    _require_compatible(a, b)
    value = 0.0
    if a.grade == b.grade:
        phase, norm, q = _polars([a, b])
        value = norm[0] * norm[1] * _oriented_cos_of_frames(*zip(phase, q))
    return complex(value) if a.field is Field.COMPLEX else float(value)


def blade_norm(a: Blade, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Norm ``sqrt(<a, a>)``: the factor-parallelotope volume (squared volume
    of the underlying real parallelotope, in the complex case); 0.0 exactly
    when ``a.is_zero(tol)``, NumericalConsistencyError when it overflows."""
    return float(_polars([a], tol)[1][0])


@dataclass(frozen=True)
class Contraction:
    """Left contraction ``nu _| omega`` kept as coefficients against the
    complementary coordinate blades of one decomposition of omega.

    ``terms[k] = (I, c_I)`` means the contraction is ``sum_I c_I * omega_Ihat``
    where ``omega_Ihat`` is built from the source factors indexed by the
    complement of I.  For removed grade > source grade the contraction is
    zero and ``terms`` is empty.
    """

    source_factors: np.ndarray
    field: Field
    removed_grade: int
    terms: tuple[tuple[MultiIndex, complex | float], ...]

    @property
    def grade(self) -> int:
        return max(self.source_factors.shape[1] - self.removed_grade, 0)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def complement_blade(self, index: MultiIndex) -> Blade:
        cols = index.complement().zero_based()
        return Blade(self.source_factors[:, cols], field=self.field, ambient_dim=self.source_factors.shape[0])

    def inner_with(self, mu: Blade) -> complex | float:
        """``<mu, nu _| omega>``, linear in the contraction."""
        zero = 0j if self.field is Field.COMPLEX else 0.0
        return sum((c * blade_inner(mu, self.complement_blade(i)) for i, c in self.terms), zero)

    def norm(self, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
        """Norm through the Gram matrix of the complementary blades, in one stacked determinant."""
        if not self.terms:
            return 0.0
        if self.grade == 0:  # c times the empty blade, whose Gram matrix is [[1]]
            return abs(self.terms[0][1])
        phase, norm, q = _polars([self.complement_blade(i) for i, _ in self.terms])
        w, coeffs = phase * norm, np.array([c for _, c in self.terms], dtype=self.field.dtype)
        g = np.outer(w.conj(), w) * np.linalg.det(q.conj().swapaxes(1, 2)[:, None] @ q)  # <b_i, b_j>
        value = np.real(coeffs.conj() @ g @ coeffs)
        if value < -tol.residual_eps * max(1.0, float(np.max(np.abs(g))) * float(np.sum(np.abs(coeffs) ** 2))):
            raise NumericalConsistencyError(f"squared contraction norm came out negative: {value}")
        return float(np.sqrt(max(value, 0.0)))


def contract(nu: Blade, omega: Blade) -> Contraction:
    """Left contraction of ``nu`` on ``omega``: the adjoint of wedging by nu,
    so that ``<mu, contract(nu, omega)> = <nu ^ mu, omega>`` for every mu.

    Returns the zero contraction when ``grade(nu) > grade(omega)``; for equal
    grades the single term coincides with the blade inner product.
    """
    _require_compatible(nu, omega)
    p, q = nu.grade, omega.grade
    if p > q:
        return Contraction(omega.factors, omega.field, p, ())
    indices = multi_indices(p, q)
    parts = [Blade(omega.factors[:, i.zero_based()], field=omega.field, ambient_dim=omega.ambient_dim) for i in indices]
    phase, norm, frames = _polars([nu] + parts)
    w = phase * norm
    inner = w[0].conjugate() * w[1:] * np.linalg.det(frames[0].conj().T @ frames[1:])  # <nu, omega_I>
    terms = tuple((i, sigma_sign(i) * x * omega.coefficient) for i, x in zip(indices, inner.tolist()))
    return Contraction(omega.factors, omega.field, p, terms)


@dataclass(frozen=True)
class CoordinateBladeSet:
    """All grade-p coordinate blades ``w_i1 ^ ... ^ w_ip`` of one basis."""

    basis: np.ndarray
    grade: int
    blades: Mapping[MultiIndex, Blade]

    def __post_init__(self):
        object.__setattr__(self, "basis", np.array(self.basis))  # a copy, never the caller's array

    def __iter__(self):
        return iter(self.blades.items())


def coordinate_blades(basis, p: int, field: Field | None = None) -> CoordinateBladeSet:
    """Coordinate p-blades of a basis (given as vectors or an (n, q) column
    matrix).  If the basis is orthonormal the set is orthonormal in grade p.
    """
    mat, field = as_basis(basis, field)
    q = mat.shape[1]
    if not 0 <= p <= q:
        raise MultiIndexError(f"grade must satisfy 0 <= p <= {q}, got {p}")
    blades = {
        index: Blade(mat[:, index.zero_based()], field=field, ambient_dim=mat.shape[0])
        for index in multi_indices(p, q)
    }
    return CoordinateBladeSet(mat, p, blades)
