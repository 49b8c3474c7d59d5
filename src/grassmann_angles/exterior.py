"""Blades, multi-index combinatorics, wedge products, and contractions.

A blade is kept as its list of vector factors (columns of an ``(n, p)``
array) plus a scalar weight; it is never expanded into ``C(n, p)``
coordinates.  Inner products of blades are Gram determinants of the factor
inner products, conjugate-linear in the first argument over the complex
field.  Grade-0 blades are scalars with an empty factor list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

import numpy as np

from .errors import DomainError, MultiIndexError, NumericalConsistencyError
from .fields import DEFAULT_TOLERANCE, Field, Tolerance, as_basis
from .linalg import det, gram, orthonormalize

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
    dependent (or the coefficient vanishes), which is detected through the
    Gram determinant rather than stored.
    """

    __slots__ = ("factors", "field", "coefficient")

    def __init__(self, factors, field: Field | None = None, coefficient=1.0, ambient_dim: int | None = None):
        mat, field = as_basis(factors, field, ambient_dim)
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
        which rescales each factor first).  A Gram determinant would not do:
        for dependent factors it rounds to about eps times its Hadamard bound."""
        return self.coefficient == 0 or orthonormalize(self.factors, tol)[1] < self.grade

    def __repr__(self):
        return f"Blade(grade={self.grade}, ambient={self.ambient_dim}, field={self.field.value})"


def _require_compatible(a: Blade, b: Blade):
    if a.field is not b.field:
        raise DomainError(f"mixed scalar fields: {a.field.value} vs {b.field.value}")
    if a.ambient_dim != b.ambient_dim:
        raise DomainError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")


def _hadamard_bound(blade: Blade, t: float) -> float:
    """``t`` times the Hadamard bound ``|c|^2 prod |f_i|^2`` of ``<blade, blade>``,
    inf when that overflows.  The product runs over mantissas and exponents,
    so no partial product overflows or underflows."""
    m, e = math.frexp(t)
    cm, ce = math.frexp(abs(blade.coefficient))
    m, e = m * cm * cm, e + 2 * ce
    for x in _factor_squares(blade):
        xm, xe = math.frexp(x)
        m, e = m * xm, e + xe
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf


def _factor_squares(blade: Blade) -> list[float]:
    """Squared norms of the factors."""
    return (np.abs(blade.factors) ** 2).sum(axis=0).tolist()


def wedge(a: Blade, b: Blade) -> Blade:
    """Exterior product; grade-0 blades act as scalar multipliers."""
    _require_compatible(a, b)
    return Blade(
        np.hstack([a.factors, b.factors]),
        field=a.field,
        coefficient=a.coefficient * b.coefficient,
        ambient_dim=a.ambient_dim,
    )


def blade_inner(a: Blade, b: Blade) -> complex | float:
    """Inner product of blades: the Gram determinant ``det(<a_i, b_j>)``.

    Blades of distinct grades are orthogonal.  Conjugate-linear in the first
    argument over the complex field.
    """
    _require_compatible(a, b)
    zero = 0j if a.field is Field.COMPLEX else 0.0
    if a.grade != b.grade:
        return zero
    value = a.field.conj(a.coefficient) * b.coefficient * det(gram(a.factors, b.factors))
    return complex(value) if a.field is Field.COMPLEX else float(np.real(value))


def blade_norm(a: Blade, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Norm ``sqrt(<a, a>)``: the factor-parallelotope volume (squared volume
    of the underlying real parallelotope, in the complex case).

    A Gram determinant with a negative real part beyond round-off, or one
    that is not finite, raises NumericalConsistencyError instead of being
    clamped.
    """
    return _norm_from_square(a, float(np.real(blade_inner(a, a))), tol)


def _norm_from_square(a: Blade, square: float, tol: Tolerance) -> float:
    """``sqrt(square)`` for ``square = <a, a>`` already computed, checked as in blade_norm."""
    if not -max(tol.residual_eps, _hadamard_bound(a, tol.residual_eps)) <= square < np.inf:
        raise NumericalConsistencyError(f"squared blade norm came out negative or not finite: {square}")
    return float(np.sqrt(max(square, 0.0)))


def _vanishes(a: Blade, square: float, tol: Tolerance) -> bool:
    """Whether ``square = <a, a>``, already computed, is below rank_eps^2 times
    its Hadamard bound: a cheap guard that misses dependent factors whose
    Gram determinant rounds above that (see Blade.is_zero)."""
    return not square > _hadamard_bound(a, tol.rank_eps**2)


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
        """Norm through the Gram matrix of the complementary blades."""
        if not self.terms:
            return 0.0
        blades = [self.complement_blade(i) for i, _ in self.terms]
        coeffs = np.array([c for _, c in self.terms], dtype=self.field.dtype)
        g = np.array([[blade_inner(bi, bj) for bj in blades] for bi in blades], dtype=self.field.dtype)
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
    terms = []
    for index in multi_indices(p, q):
        omega_i = Blade(omega.factors[:, index.zero_based()], field=omega.field, ambient_dim=omega.ambient_dim)
        coeff = sigma_sign(index) * blade_inner(nu, omega_i) * omega.coefficient
        terms.append((index, coeff))
    return Contraction(omega.factors, omega.field, p, tuple(terms))


@dataclass(frozen=True)
class CoordinateBladeSet:
    """All grade-p coordinate blades ``w_i1 ^ ... ^ w_ip`` of one basis."""

    basis: np.ndarray
    grade: int
    blades: Mapping[MultiIndex, Blade]

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
