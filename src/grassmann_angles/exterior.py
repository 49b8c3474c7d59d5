"""Blades, multi-index combinatorics, wedge products, and contractions.

A blade is kept as its list of vector factors (columns of an ``(n, p)``
array) plus a scalar weight; it is never expanded into ``C(n, p)``
coordinates.  Norms, inner products and contractions are read off the unit
frame F = QR of the factors (``_unit_frame``), conjugate-linear in the first
argument over the complex field; the inner products with all coordinate
blades u_I of a frame are one stack of minors (``_minors``).  Grade-0 blades
are scalars with an empty factor list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import DimensionMismatchError, DomainError, MultiIndexError, NumericalConsistencyError
from .fields import DEFAULT_TOLERANCE, Field, Tolerance, _is_integer, as_basis
from .linalg import _column_exponents, _validate_multi_index, det, gram, orthonormalize
from .subspaces import _index_stack, _require_same_space

# Combinatorial guard rails: C(16, 8) = 12870 keeps every enumeration cheap.
AMBIENT_LIMIT = 16
GRADE_LIMIT = 16


def _require_ambient_cap(n: int):
    if n > AMBIENT_LIMIT:
        raise DomainError(f"ambient dimension {n} exceeds the cap of {AMBIENT_LIMIT}")


@dataclass(frozen=True)
class MultiIndex:
    """Strictly increasing tuple of 1-based indices inside [1, ambient].

    The empty tuple is the single grade-0 index; its weight is 0 and its
    complement is the full range.
    """

    indices: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        if self.ambient < 0:
            raise MultiIndexError(f"ambient must be nonnegative, got {self.ambient}")
        object.__setattr__(self, "indices", _validate_multi_index(self.indices, self.ambient))

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
    if not (_is_integer(p) and _is_integer(q) and p >= 0 and q >= 0):
        raise MultiIndexError(f"sizes must be nonnegative integers, got p={p!r}, q={q!r}")
    return [MultiIndex(row, q) for row in (_index_stack(q, p) + 1).tolist()]


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
        _require_ambient_cap(mat.shape[0])
        if mat.shape[1] > GRADE_LIMIT:
            raise DomainError(f"grade {mat.shape[1]} exceeds the cap of {GRADE_LIMIT}")
        c = complex(coefficient)
        if field is Field.REAL and c.imag != 0.0:
            raise DimensionMismatchError("complex coefficient over the real field")
        self.factors = mat.copy(order="K")  # a copy, never the caller's array
        self.field = field
        self.coefficient = c if field is Field.COMPLEX else c.real

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
        return _unit_frame(self, tol)[0] == 0

    def __repr__(self):
        return f"Blade(grade={self.grade}, ambient={self.ambient_dim}, field={self.field.value})"


def _unit_frame(blade: Blade, tol: Tolerance) -> tuple[complex | float, np.ndarray]:
    """``(c / |c|, Q)`` for the blade ``c * (f_1 ^ ... ^ f_p)``, with Q from ``orthonormalize(F)``;
    ``(0.0, zeros like F)`` for a zero blade (c = 0, or rank < grade), never None.
    F = QR with R's diagonal real and positive, so the unit blade is
    ``(c / |c|) * (q_1 ^ ... ^ q_p)`` on any scale."""
    if blade.coefficient != 0:
        if not math.isfinite(abs(blade.coefficient)):
            raise DomainError("blade coefficient must be finite (no NaN or infinity)")
        q, rank = orthonormalize(blade.factors, tol)
        if rank == blade.grade:
            return blade.coefficient / abs(blade.coefficient), q
    return 0.0, np.zeros_like(blade.factors)


def wedge(a: Blade, b: Blade) -> Blade:
    """Exterior product; grade-0 blades act as scalar multipliers."""
    _require_same_space(a, b)
    return Blade(
        np.hstack([a.factors, b.factors]),
        field=a.field,
        coefficient=a.coefficient * b.coefficient,
        ambient_dim=a.ambient_dim,
    )


def _oriented_cos_of_frames(frame_a, frame_b) -> complex | float:
    """The oriented cosine ``conj(phase_a) phase_b det(Q_a* Q_b)`` of two ``_unit_frame`` results."""
    (phase_a, q_a), (phase_b, q_b) = frame_a, frame_b
    if phase_a == 0 or phase_b == 0:
        raise DomainError("oriented angle is undefined for zero blades")
    return phase_a.conjugate() * phase_b * det(gram(q_a, q_b))


def _polar(blade: Blade, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[complex | float, float, np.ndarray]:
    """``(phase, norm, Q)`` of a blade from its ``_unit_frame`` (c/|c|, Q), with
    norm |c| prod r_jj for r_jj = <q_j, f_j> > 0; a zero blade has phase 0,
    norm 0.0 and Q = 0.  Each factor is scaled by a power of two and the
    product runs over mantissas and exponents, so no step over- or underflows
    before the norm does."""
    phase, q = _unit_frame(blade, tol)
    s = _column_exponents(blade.factors)
    m, r_exp = np.frexp(np.einsum("ij,ij->j", q.conj(), blade.factors * np.ldexp(1.0, s)).real)
    cm, ce = math.frexp(abs(blade.coefficient))
    m, e = math.frexp(cm * m.prod())
    e += ce + int((r_exp - s).sum())
    if m > 0 and e > 1024:
        raise NumericalConsistencyError("blade norm is too large for a float")
    return phase, math.ldexp(m, e), q


def blade_inner(a: Blade, b: Blade) -> complex | float:
    """Inner product of blades, the Gram determinant ``det(<a_i, b_j>)``, as
    ``|a| |b|`` times the oriented cosine of their unit frames.

    Blades of distinct grades are orthogonal, and so are zero blades (by the
    default rule of ``Blade.is_zero``).  Conjugate-linear in the first
    argument over the complex field.
    """
    _require_same_space(a, b)
    value = 0.0
    if a.grade == b.grade:
        (phase_a, norm_a, q_a), (phase_b, norm_b, q_b) = _polar(a), _polar(b)
        value = norm_a * norm_b * _oriented_cos_of_frames((phase_a, q_a), (phase_b, q_b)) if phase_a and phase_b else 0.0
    return complex(value) if a.field is Field.COMPLEX else float(value)


def blade_norm(a: Blade, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Norm ``sqrt(<a, a>)``: the factor-parallelotope volume (squared volume
    of the underlying real parallelotope, in the complex case); 0.0 exactly
    when ``a.is_zero(tol)``, NumericalConsistencyError when it overflows."""
    return _polar(a, tol)[1]


def _minors(phase, q: np.ndarray, units: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``<phase * (q_1 ^ ... ^ q_p), u_I> = conj(phase) det(Q* U_I)`` for each row I of the
    (k, p) int array ``rows`` and those columns U_I of ``units``, in one stacked determinant."""
    return np.conj(phase) * np.linalg.det(np.moveaxis(gram(q, units)[:, rows], 0, 1))


@dataclass(frozen=True)
class Contraction:
    """Left contraction ``nu _| omega`` against omega's unit frame: omega is
    ``w * (q_1 ^ ... ^ q_q)`` for the orthonormal columns of ``source_factors``
    (all zero for a zero omega, the zero frame of ``_unit_frame``), and
    ``terms[k] = (I, c_I)`` means the contraction is ``sum_I c_I * q_Ihat``, with
    ``c_I = sigma(I) w <nu, q_I>`` and q_Ihat the unit blade of the columns off I;
    the terms may come in any order.  For removed grade > source grade the
    contraction is zero and ``terms`` is empty.
    """

    source_factors: np.ndarray
    field: Field
    removed_grade: int
    terms: tuple[tuple[MultiIndex, complex | float], ...]

    @property
    def grade(self) -> int:
        return max(self.source_factors.shape[1] - self.removed_grade, 0)

    @property
    def ambient_dim(self) -> int:
        return self.source_factors.shape[0]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def complement_blade(self, index: MultiIndex) -> Blade:
        cols = index.complement().zero_based()
        return Blade(self.source_factors[:, cols], field=self.field, ambient_dim=self.ambient_dim)

    def inner_with(self, mu: Blade) -> complex | float:
        """``<mu, nu _| omega> = sum_I c_I <mu, q_Ihat>``, linear in the
        contraction; mu is judged zero by the default rule, as in ``blade_inner``."""
        _require_same_space(mu, self)
        value = 0.0
        if self.terms and mu.grade == self.grade:
            phase, norm, q = _polar(mu)
            columns = np.arange(1, self.source_factors.shape[1] + 1)
            off = (np.array([i.indices for i, _ in self.terms])[..., None] != columns).all(axis=1)  # (k, q) mask
            rows = np.nonzero(off)[1].reshape(len(self), self.grade)  # each I's complement, increasing
            value = np.array([c for _, c in self.terms]) @ _minors(phase * norm, q, self.source_factors, rows)
        return complex(value) if self.field is Field.COMPLEX else float(value)

    def norm(self) -> float:
        """``sqrt(sum_I |c_I|^2)``, as the q_Ihat are orthonormal: the generalized Pythagorean identity;
        NumericalConsistencyError, as for a blade norm, when it passes the largest float."""
        try:
            value = math.hypot(*(abs(c) for _, c in self.terms))
        except OverflowError:  # the modulus of one complex term already does
            value = math.inf
        if value == math.inf:
            raise NumericalConsistencyError("contraction norm is too large for a float")
        return value


def _ldexp_terms(x: np.ndarray, e: int) -> np.ndarray:
    """``x * 2**e`` exactly, for a real or complex array x with parts below 2 in modulus;
    NumericalConsistencyError, as for a blade norm, when a real or imaginary part passes
    the largest float, which needs e > 1023."""
    parts = x.view(np.float64)  # a complex x as its real and imaginary parts side by side
    if e > 1023 and np.abs(parts).max(initial=0.0) >= math.ldexp(1.0, 1024 - e):
        raise NumericalConsistencyError("contraction term is too large for a float")
    return np.ldexp(parts, e).view(x.dtype)


def contract(nu: Blade, omega: Blade, tol: Tolerance = DEFAULT_TOLERANCE) -> Contraction:
    """Left contraction of ``nu`` on ``omega``: the adjoint of wedging by nu,
    so that ``<mu, contract(nu, omega)> = <nu ^ mu, omega>`` for every mu.

    Both blades are judged zero by the rank rule of ``tol``.  Each <nu, q_I>
    is a minor of Q_nu* Q, all in one stacked determinant (none when
    grade(nu) > grade(omega); one, the blade inner product, at equal grades).
    """
    _require_same_space(nu, omega)
    phase, norm, q = _polar(omega, tol)
    phase_nu, norm_nu, q_nu = _polar(nu, tol)
    # |w| |nu| = m m_nu 2^e may pass the largest float where a term, times a minor, does not;
    # the mantissas are below 1 and the minors of two unit frames at most 1
    (m, e), (m_nu, e_nu) = math.frexp(norm), math.frexp(norm_nu)
    inner = _ldexp_terms(phase * m * _minors(phase_nu * m_nu, q_nu, q, _index_stack(omega.grade, nu.grade)), e + e_nu)
    terms = tuple((i, sigma_sign(i) * x) for i, x in zip(multi_indices(nu.grade, omega.grade), inner.tolist()))
    return Contraction(q, omega.field, nu.grade, terms)


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
