"""Angle computations between subspaces.

The central quantity is the (asymmetric) Grassmann angle in [0, pi/2]: its
cosine is the factor by which volumes in V shrink when orthogonally
projected onto W, i.e. ``cos = |P nu| / |nu|`` for a blade nu representing V.
It equals the product of the principal cosines when dim V <= dim W and is
pi/2 otherwise.  The complementary angle is the Grassmann angle against the
orthogonal complement of W; unlike the plain angle it is symmetric.  Both
are read off the projection matrix ``b = W* V`` of the stored orthonormal
bases: cos^2 = det(b* b), and the complementary cosine is prod sigma(V - W b).

Every route here evaluates its own formula once, independently of the
others (so each is a cross-check oracle for the rest), and reports an
``AngleReport`` carrying the method used.  All cos^2 values are clamped
into [0, 1] before sqrt/arccos; negative values beyond round-off raise
NumericalConsistencyError so genuine bugs cannot hide behind a clamp.

A raw-basis route (equal-dim, any-dim, the complementary Schur formula) is a
basis check followed by a formula kernel: ``_paired_bases`` checks both
bases on every call, and the private kernel (``_equal_dim``, ``_any_dim``,
``_complementary_formula``) trusts the checked matrices it is given, so a
caller that holds them already (the gallery, on the bundled bases) calls the
kernel alone.

The oriented cosine of two blades is read off their orthonormal frames, so
it needs no rescaling on extreme scales and no zero test of its own.  It is
the one route that imports ``exterior``, when it is called.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DegenerateBasisError, DimensionMismatchError, DomainError, NumericalConsistencyError
from .fields import (
    DEFAULT_TOLERANCE,
    GRAM_CONDITION_LIMIT,
    NEGATIVE_COS_SQ_SLACK,
    Field,
    Tolerance,
    as_basis,
    as_field_array,
)
from .linalg import det, gram, scale_columns
from .subspaces import Subspace, _require_same_space, _stacked_cos_squared, principal_cosines

if TYPE_CHECKING:
    from .exterior import Blade

# A raw basis with singular values s_i whose Gram determinant prod s_i^2 lies
# outside 2^(+-500) is scaled exactly to a geometric-mean s_i of about 1, so
# that a product of two Gram determinants stays in range.
_GRAM_EXPONENT_LIMIT = 250

__all__ = [
    "AngleMethod",
    "AngleReport",
    "VectorAngles",
    "vector_angle",
    "grassmann_angle",
    "grassmann_angle_principal",
    "grassmann_angle_equal_dim",
    "grassmann_angle_any_dim",
    "complementary_angle",
    "complementary_angle_formula",
    "complementary_angle_orthonormal",
    "oriented_grassmann_cos",
]


class AngleMethod(enum.Enum):
    PROJECTION = "Projection"
    EQUAL_DIM_FORMULA = "EqualDimFormula"
    ANY_DIM_FORMULA = "AnyDimFormula"
    PRINCIPAL_PRODUCT = "PrincipalProduct"
    COMPLEMENTARY_FORMULA = "ComplementaryFormula"
    COMPLEMENTARY_PROJECTION = "ComplementaryProjection"
    ORIENTED = "Oriented"


@dataclass(frozen=True)
class AngleReport:
    """An angle in [0, pi/2] plus how it was computed.

    ``residual`` stays for a stable output format and is always 0.0: each
    route evaluates one formula; compare routes by calling them.
    """

    value: float
    cosine: float
    method: AngleMethod
    residual: float = 0.0

    @property
    def cos_squared(self) -> float:
        return self.cosine**2

    @property
    def degrees(self) -> float:
        return math.degrees(self.value)


class VectorAngles(NamedTuple):
    """Euclidean angle in [0, pi]; Hermitian angle in [0, pi/2] (complex only)."""

    euclidean: float
    hermitian: float | None


def _real_scalar(z: complex | float, dominant: np.ndarray, context: str) -> float:
    """The real part of ``z = linalg.det(M)`` for a Hermitian matrix M with
    0 <= M <= ``dominant`` (in the PSD order).  Hadamard's inequality bounds
    |det M| by the product of the diagonal of ``dominant``, and rounding in z
    is a small multiple of eps times that bound; an imaginary part beyond
    NEGATIVE_COS_SQ_SLACK times the bound raises, on any scale of the bases."""
    imag = abs(z.imag)
    # |z| lies within the bound, so the bound is formed only past the slack of |z|
    if imag > NEGATIVE_COS_SQ_SLACK * abs(z):
        if imag > NEGATIVE_COS_SQ_SLACK * math.prod(dominant.diagonal().real.tolist()):
            raise NumericalConsistencyError(f"{context} should be real, got imaginary part {z.imag:.2e}")
    return z.real


def _report(cosine: float, method: AngleMethod) -> AngleReport:
    return AngleReport(math.acos(cosine), cosine, method)


def _report_from_cos_sq(cos_sq: float, method: AngleMethod) -> AngleReport:
    return _report(_clamped_cos(cos_sq), method)


def _clamped_cos(cos_sq: float) -> float:
    if cos_sq < -NEGATIVE_COS_SQ_SLACK:
        raise NumericalConsistencyError(f"squared cosine came out at {cos_sq}, well below 0")
    return math.sqrt(min(max(cos_sq, 0.0), 1.0))


def _basis_matrix(mat: np.ndarray) -> np.ndarray:
    """A basis matrix over its field, checked to be independent, well-conditioned and finite."""
    if mat.shape[1] == 0:
        raise DegenerateBasisError("a basis needs at least one vector")
    try:
        s = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError:
        raise DegenerateBasisError("basis vectors must have finite entries") from None
    # cond(Gram) = cond(basis)^2; reject above the Gram condition limit (and NaN)
    if not (s[-1] > 0.0 and (s[0] / s[-1]) ** 2 <= GRAM_CONDITION_LIMIT):
        raise DegenerateBasisError("basis vectors are linearly dependent, too ill-conditioned or not finite")
    log2_root_det = sum(map(math.log2, s.tolist()))  # log2 of sqrt(det G)
    if abs(log2_root_det) > _GRAM_EXPONENT_LIMIT:
        e = -round(log2_root_det / mat.shape[1])
        mat = mat * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)  # in two factors, since 2^e alone may overflow
    return mat


def _paired_bases(basis_v, basis_w, field: Field | None):
    """Checked matrices of two bases over ``field``, or if None over the complex field when either is complex."""
    (mv, fv), (mw, fw) = as_basis(basis_v, field), as_basis(basis_w, field)
    if fv is not fw:  # one side looked real only because its entries happened to be real
        mv, mw = as_field_array(mv, Field.COMPLEX), as_field_array(mw, Field.COMPLEX)
    mv, mw = _basis_matrix(mv), _basis_matrix(mw)
    if mv.shape[0] != mw.shape[0]:
        raise DimensionMismatchError(f"ambient dimensions differ: {mv.shape[0]} vs {mw.shape[0]}")
    return mv, mw


def vector_angle(v, w, field: Field | None = None) -> VectorAngles:
    """Angles between two nonzero vectors.

    The Euclidean angle uses the real part of the inner product and lives in
    [0, pi]; over the complex field the Hermitian angle uses the modulus and
    lives in [0, pi/2] (it is None over the reals).
    """
    av, aw = np.asarray(v), np.asarray(w)
    if field is None:
        field = Field.COMPLEX if (np.iscomplexobj(av) or np.iscomplexobj(aw)) else Field.REAL
    av, aw = as_field_array(av, field), as_field_array(aw, field)
    if av.shape != aw.shape or av.ndim != 1:
        raise DimensionMismatchError(f"need two vectors of equal length, got {av.shape} and {aw.shape}")
    # each vector its own column, a view of it: BLAS rounds dot products of other strides in another order
    av, aw = scale_columns(av[:, None])[:, 0], scale_columns(aw[:, None])[:, 0]
    nv, nw = float(np.linalg.norm(av)), float(np.linalg.norm(aw))
    if nv == 0.0 or nw == 0.0:
        raise DomainError("vector angles are undefined for the zero vector")
    ip = np.vdot(av, aw)
    euclidean = math.acos(min(max(float(np.real(ip)) / (nv * nw), -1.0), 1.0))
    hermitian = None
    if field is Field.COMPLEX:
        hermitian = math.acos(min(abs(ip) / (nv * nw), 1.0))
    return VectorAngles(euclidean, hermitian)


def grassmann_angle(v: Subspace, w: Subspace) -> AngleReport:
    """Grassmann angle of v with w by the projection definition.

    The squared cosine is the Gram determinant det(b* b) of the projection
    matrix b = W* V, the squared norm of the projected unit blade of v.  It
    gives the degenerate dimensions their conventions: the angle is 0 when v
    is the zero subspace (the empty determinant is 1), and pi/2 whenever
    dim v > dim w, in particular when w is zero and v is not.
    """
    _require_same_space(v, w)
    return _report(_projection_cos(gram(w.onb, v.onb)), AngleMethod.PROJECTION)


def _projection_cos(b: np.ndarray) -> float:
    """``grassmann_angle``'s kernel: sqrt(det(b* b)) for b = W* V between orthonormal bases, clamped."""
    return _clamped_cos(float(_stacked_cos_squared(b[None])[0]))


def grassmann_angle_principal(v: Subspace, w: Subspace) -> AngleReport:
    """Grassmann angle as the product of principal cosines (the empty
    product 1 when v is zero), pi/2 when dim v > dim w."""
    _require_same_space(v, w)
    if v.dim > w.dim:
        return _report(0.0, AngleMethod.PRINCIPAL_PRODUCT)
    return _report(float(np.prod(principal_cosines(v, w))), AngleMethod.PRINCIPAL_PRODUCT)


def grassmann_angle_equal_dim(basis_v, basis_w, field: Field | None = None) -> AngleReport:
    """Grassmann angle of two equal-dimensional subspaces from arbitrary bases.

    With the Gram matrices A (of the w's), D (of the v's) and the cross
    matrix B = (<w_i, v_j>):   cos^2 = |det B|^2 / (det A det D).
    """
    return _equal_dim(*_paired_bases(basis_v, basis_w, field))


def _equal_dim(mv: np.ndarray, mw: np.ndarray) -> AngleReport:
    """The equal-dimension formula on two checked basis matrices of one space."""
    if mv.shape[1] != mw.shape[1]:
        raise DimensionMismatchError(
            f"equal-dimension formula needs equal basis sizes, got {mv.shape[1]} and {mw.shape[1]}"
        )
    gw, gv = gram(mw, mw), gram(mv, mv)
    a = _real_scalar(det(gw), gw, "det of a Gram matrix")
    d = _real_scalar(det(gv), gv, "det of a Gram matrix")
    b = det(gram(mw, mv))
    return _report_from_cos_sq(abs(b) ** 2 / (a * d), AngleMethod.EQUAL_DIM_FORMULA)


def grassmann_angle_any_dim(basis_v, basis_w, field: Field | None = None) -> AngleReport:
    """Grassmann angle from arbitrary bases of any dimensions.

    Uses cos^2 = det(B* A^-1 B) / det D, evaluated by a linear solve against
    the Gram matrix A (never an explicit inverse).  When dim V > dim W the
    matrix B* A^-1 B is rank-deficient, so the angle is exactly pi/2 and no
    arithmetic is attempted.
    """
    return _any_dim(*_paired_bases(basis_v, basis_w, field))


def _any_dim(mv: np.ndarray, mw: np.ndarray) -> AngleReport:
    """The any-dimension formula on two checked basis matrices of one space."""
    if mv.shape[1] > mw.shape[1]:
        return _report(0.0, AngleMethod.ANY_DIM_FORMULA)
    a = gram(mw, mw)
    b = gram(mw, mv)
    gv = gram(mv, mv)
    d = _real_scalar(det(gv), gv, "det of a Gram matrix")
    # the Gram matrix of V's projection onto W lies below that of V
    num = _real_scalar(det(b.conj().T @ np.linalg.solve(a, b)), gv, "det of a projected Gram matrix")
    return _report_from_cos_sq(num / d, AngleMethod.ANY_DIM_FORMULA)


def complementary_angle(v: Subspace, w: Subspace) -> AngleReport:
    """Angle of v with the orthogonal complement of w (symmetric in v, w).

    The cosine is the product of the principal sines of v with w, the
    singular values of V - W (W* V), which keeps full precision at pi/2
    (Bjorck & Golub 1973); it is 0 when dim v > n - dim w.  The determinant
    routes complementary_angle_formula and complementary_angle_orthonormal
    give the same angle independently.
    """
    _require_same_space(v, w)
    return _report(_complementary_cos(v.onb, w.onb), AngleMethod.COMPLEMENTARY_PROJECTION)


def _complementary_cos(v: np.ndarray, w: np.ndarray) -> float:
    """``complementary_angle``'s kernel on orthonormal bases v and w of one space."""
    if v.shape[1] > v.shape[0] - w.shape[1]:
        return 0.0
    sines = np.linalg.svd(v - w @ gram(w, v), compute_uv=False)
    return min(float(np.prod(sines)), 1.0)


def complementary_angle_formula(basis_v, basis_w, field: Field | None = None) -> AngleReport:
    """Complementary angle from arbitrary bases via a Schur complement:
    cos^2 = det(A - B D^-1 B*) / det A."""
    return _complementary_formula(*_paired_bases(basis_v, basis_w, field))


def _complementary_formula(mv: np.ndarray, mw: np.ndarray) -> AngleReport:
    """The Schur complement formula on two checked basis matrices of one space."""
    a = gram(mw, mw)
    b = gram(mw, mv)
    d = gram(mv, mv)
    schur = a - b @ np.linalg.solve(d, b.conj().T)
    # the Schur complement, the Gram matrix of W's part orthogonal to V, lies below A
    num = _real_scalar(det(schur), a, "det of a Schur complement")
    den = _real_scalar(det(a), a, "det of a Gram matrix")
    return _report_from_cos_sq(num / den, AngleMethod.COMPLEMENTARY_FORMULA)


def complementary_angle_orthonormal(v: Subspace, w: Subspace) -> AngleReport:
    """Complementary angle via cos^2 = det(1 - P P*) with P the projection
    matrix between the stored orthonormal bases."""
    _require_same_space(v, w)
    p = gram(w.onb, v.onb)
    eye = np.eye(w.dim, dtype=w.field.dtype)
    cos_sq = _real_scalar(det(eye - p @ p.conj().T), eye, "det(1 - P P*)")
    return _report_from_cos_sq(cos_sq, AngleMethod.COMPLEMENTARY_FORMULA)


def oriented_grassmann_cos(nu: Blade, omega: Blade, tol: Tolerance = DEFAULT_TOLERANCE) -> complex | float:
    """Cosine of the oriented Grassmann angle: ``<nu, omega> / (|nu| |omega|)``.

    A field scalar whose modulus is the unoriented cosine; over the reals its
    sign tracks relative orientation, over the complex field it carries the
    phase of the blade inner product (only the cosine is defined there).
    Evaluated as ``conj(phase_nu) phase_omega det(Q_nu* Q_omega)`` from the
    unit frames of ``exterior._unit_frame``: no Gram determinant is divided,
    so it holds on any scale and for ill-conditioned rank-full blades, and a
    zero blade (by the rule of ``Blade.is_zero``) raises DomainError.
    """
    from . import exterior

    if nu.grade != omega.grade:
        raise DomainError(f"oriented angle needs equal grades, got {nu.grade} and {omega.grade}")
    _require_same_space(nu, omega)
    return exterior._oriented_cos_of_frames(exterior._unit_frame(nu, tol), exterior._unit_frame(omega, tol))

