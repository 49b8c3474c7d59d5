"""Subspaces, orthogonal projections, principal decompositions, and the
principal-subspace / principal-partition predicates.

A subspace is held as an orthonormal column basis; the zero subspace has
zero columns.  Principal bases diagonalize the projection between two
subspaces: ``<e_i, f_j> = delta_ij cos(theta_i)`` with the principal angles
``theta_1 <= ... <= theta_m`` and ``m = min(dim V, dim W)``.  Because
principal vectors are not unique (any SVD choice works, and ties make them
wildly non-unique), every predicate here is phrased through projection
orthogonality, which does not depend on that freedom.

This module is on the import path of every angle route, so it loads no blade
code: ``exterior`` is imported inside the two functions that build a blade,
``Subspace.spanning_blade`` and ``project_blade``.  The stacked squared
Grassmann cosines of projection matrices (``_stacked_cos_squared``) and of
coordinate subspaces (``_coordinate_cos_squared``) live here, shared by the
routes, the identity checkers and the gallery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import chain, combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .fields import DEFAULT_TOLERANCE, Field, Tolerance, _is_integer, as_basis, as_field_array
from .linalg import gram, orthonormalize

if TYPE_CHECKING:
    from .exterior import Blade, Contraction

# The one round-off threshold for exact relations: "is this really orthogonal"
# and "is this really contained".  Looser than machine epsilon, as products
# compound error.  Fixed policy, not tied to the tunable grading tolerance:
# how identities are graded must not change which inputs are accepted.
ORTHOGONALITY_DEFECT = 1e-8


class Subspace:
    """A linear subspace of an n-dimensional real or complex space."""

    __slots__ = ("ambient_dim", "field", "onb")

    def __init__(self, onb: np.ndarray, field: Field, *, _validate: bool = True):
        """Subspace with the orthonormal columns ``onb``, stored as a copy of
        the caller's array.  The package itself passes ``_validate=False``
        with an array of the field's dtype that no caller holds; it is stored
        as it is, or compacted if it is a view."""
        if _validate:
            onb = as_field_array(onb, field).copy(order="K")
        elif not (onb.flags.c_contiguous or onb.flags.f_contiguous):
            onb = onb.copy(order="K")  # a view would pin its whole base array, and BLAS rounds strided data differently
        if onb.ndim != 2:
            raise DimensionMismatchError("orthonormal basis must be a 2-D column matrix")
        if onb.shape[1] > onb.shape[0]:
            raise DimensionMismatchError(f"{onb.shape[1]} basis columns in ambient dimension {onb.shape[0]}")
        if _validate:
            defect = _orthonormality_defect(onb)
            if not defect <= 1e-10:
                raise DomainError(f"basis columns are not orthonormal (defect {defect:.2e}); use from_spanning")
        self.ambient_dim = onb.shape[0]
        self.field = field
        self.onb = onb

    @classmethod
    def from_spanning(cls, vectors, field: Field | None = None, tol: Tolerance = DEFAULT_TOLERANCE) -> "Subspace":
        """Subspace spanned by arbitrary vectors (rows of a sequence or
        columns of a matrix); dependent vectors are dropped.  Entries that
        are not finite raise DomainError."""
        mat, field = as_basis(vectors, field)
        q, _ = orthonormalize(mat, tol)
        return cls(q, field, _validate=False)

    @classmethod
    def zero(cls, ambient_dim: int, field: Field) -> "Subspace":
        _require_ambient_dim(ambient_dim)
        return cls(np.zeros((ambient_dim, 0), dtype=field.dtype), field, _validate=False)

    @classmethod
    def full(cls, ambient_dim: int, field: Field) -> "Subspace":
        _require_ambient_dim(ambient_dim)
        return cls(np.eye(ambient_dim, dtype=field.dtype), field, _validate=False)

    @property
    def dim(self) -> int:
        return self.onb.shape[1]

    def spanning_blade(self) -> Blade:
        """Unit blade representing the subspace (the scalar 1 for dim 0)."""
        from .exterior import Blade

        return Blade(self.onb, field=self.field, ambient_dim=self.ambient_dim)

    def contains(self, vector, tol: float = ORTHOGONALITY_DEFECT) -> bool:
        v = as_field_array(np.asarray(vector), self.field)
        return float(np.linalg.norm(v - project(v, self))) <= tol * max(1.0, float(np.linalg.norm(v)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, field={self.field.value})"


def _require_ambient_dim(ambient_dim):
    """DomainError unless ``ambient_dim`` is a nonnegative integer (a bool is not, nor is 2.0)."""
    if not (_is_integer(ambient_dim) and ambient_dim >= 0):
        raise DomainError(f"ambient dimension must be a nonnegative integer, got {ambient_dim!r}")


def _orthonormality_defect(mat: np.ndarray) -> float:
    """Largest entry of ``|mat* mat - 1|``; 0 for no columns, not finite if an entry is not."""
    return float(np.abs(gram(mat, mat) - np.eye(mat.shape[1])).max(initial=0.0))


def _require_same_space(a: Subspace | Blade | Contraction, b: Subspace | Blade | Contraction):
    """DimensionMismatchError unless a and b share a field and an ambient dimension."""
    if a.field is not b.field:
        raise DimensionMismatchError(f"mixed scalar fields: {a.field.value} vs {b.field.value}")
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")


def project(v, w: Subspace) -> np.ndarray:
    """Orthogonal projection of a vector onto w."""
    vec = as_field_array(np.asarray(v), w.field)
    if vec.shape != (w.ambient_dim,):
        raise DimensionMismatchError(f"vector of shape {vec.shape} in ambient dimension {w.ambient_dim}")
    return w.onb @ (w.onb.conj().T @ vec)


def project_blade(nu: Blade, w: Subspace) -> Blade:
    """Factorwise orthogonal projection of a blade onto w.

    The result is the zero blade exactly when the blade's subspace is
    partially orthogonal to w; otherwise it represents the projected
    subspace.
    """
    _require_same_space(nu, w)
    if nu.grade == 0:
        return nu
    from .exterior import Blade

    projected = w.onb @ (w.onb.conj().T @ nu.factors)
    return Blade(projected, field=nu.field, coefficient=nu.coefficient, ambient_dim=nu.ambient_dim)


def project_subspace(v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """The image subspace Proj_w(v); its dimension drops under partial orthogonality.

    The image is cut at an absolute ``rank_eps`` on the principal cosines
    (they live on the fixed [0, 1] scale): a direction of v that projects to
    nearly nothing must not resurface as a normalized noise vector.
    """
    _require_same_space(v, w)
    u, s, _ = np.linalg.svd(gram(w.onb, v.onb), full_matrices=False)
    rank = int(np.sum(s > tol.rank_eps))
    return Subspace(w.onb @ u[:, :rank], v.field, _validate=False)


def complement(w: Subspace) -> Subspace:
    """Orthogonal complement, of dimension ambient - dim: the trailing left
    singular vectors of w's basis (all of ``eye(n)`` for the zero subspace)."""
    full_u, _, _ = np.linalg.svd(w.onb, full_matrices=True)
    return Subspace(full_u[:, w.dim :], w.field, _validate=False)


def direct_sum(*parts: Subspace) -> Subspace:
    """Internal direct sum of pairwise-orthogonal subspaces."""
    if not parts:
        raise DomainError("direct_sum needs at least one part")
    first = parts[0]
    for p in parts[1:]:
        _require_same_space(first, p)
    stacked = np.hstack([p.onb for p in parts])
    defect = _orthonormality_defect(stacked)
    if not defect <= ORTHOGONALITY_DEFECT:
        raise DomainError(f"parts are not pairwise orthogonal (defect {defect:.2e})")
    return Subspace(stacked, first.field, _validate=False)


def orthogonal_complement_within(u: Subspace, v: Subspace) -> Subspace:
    """The orthogonal complement of u inside v (u must be a subspace of v):
    ``complement`` taken in v's coordinates, where u has the orthonormal basis v* u."""
    _require_subset(u, v)
    inside = complement(Subspace(gram(v.onb, u.onb), v.field, _validate=False))
    return Subspace(v.onb @ inside.onb, v.field, _validate=False)


def is_partially_orthogonal(v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when some nonzero vector of v is orthogonal to all of w: the
    projection of v into w loses rank, by ``project_subspace``'s rank rule."""
    return project_subspace(v, w, tol).dim < v.dim


def principal_cosines(v: Subspace, w: Subspace) -> np.ndarray:
    """Cosines of the min(dim v, dim w) principal angles, descending: the
    singular values of the projection matrix ``w* v``, clipped into [0, 1]."""
    return np.clip(np.linalg.svd(gram(w.onb, v.onb), compute_uv=False), 0.0, 1.0)


def _stacked_cos_squared(b: np.ndarray) -> np.ndarray:
    """Squared Grassmann cosines ``det(b* b)`` of stacked (k, q, p) projection
    matrices ``b = W* V`` between orthonormal bases: zeros when p > q, ones
    when p = 0.  Not clipped, so a caller can tell round-off from a fault."""
    k, q, p = b.shape
    if p > q:
        return np.zeros(k)
    return np.real(np.linalg.det(np.swapaxes(b, 1, 2).conj() @ b))


def _index_stack(n: int, p: int) -> np.ndarray:
    """The (C(n, p), p) array of the p-subsets of range(n), lexicographic: the package's one
    p-subset enumeration, under ``multi_indices`` too; one empty row for p = 0, none for p > n."""
    flat = np.fromiter(chain.from_iterable(combinations(range(n), p)), dtype=np.intp)
    return flat.reshape(math.comb(n, p), p)


def _coordinate_cos_squared(units: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """Squared Grassmann cosines of the span V of the orthonormal (n, p)
    columns ``v`` against the C(n, q) coordinate q-subspaces W_I spanned by
    columns I of the orthonormal (n, n) ``units``, in ``multi_indices`` order,
    clipped into [0, 1]: of V with W_I when p <= q, of W_I with V if p > q."""
    n, p = v.shape
    blocks = gram(units, v)[_index_stack(n, q)]  # rows I hold W_I* V
    if p > q:
        blocks = np.swapaxes(blocks, 1, 2).conj()  # V* W_I
    return np.clip(_stacked_cos_squared(blocks), 0.0, 1.0)


@dataclass(frozen=True)
class PrincipalDecomposition:
    """Paired principal bases and the principal angles between two subspaces.

    ``e_basis`` (n x p) and ``f_basis`` (n x q) are full orthonormal bases of
    the two subspaces with ``<e_i, f_j> = delta_ij cos(theta_i)``; ``angles``
    holds the m = min(p, q) principal angles in nondecreasing order.
    """

    e_basis: np.ndarray
    f_basis: np.ndarray
    angles: np.ndarray

    @property
    def cosines(self) -> np.ndarray:
        return np.cos(self.angles)

    def pairing_residual(self) -> float:
        """Max deviation of ``<e_i, f_j>`` from ``delta_ij cos(theta_i)``."""
        p, q = self.e_basis.shape[1], self.f_basis.shape[1]
        target = np.zeros((p, q))
        m = len(self.angles)
        target[:m, :m] = np.diag(np.cos(self.angles))
        return float(np.max(np.abs(gram(self.e_basis, self.f_basis) - target)))


def principal_decomposition(v: Subspace, w: Subspace) -> PrincipalDecomposition:
    """Principal bases and angles of two nonzero subspaces, by SVD of the
    projection matrix in orthonormal bases.

    Cosines are clamped into [0, 1] before arccos, so angles stay real; the
    singular values come out descending, which makes the angles ascending.
    """
    _require_same_space(v, w)
    if v.dim == 0 or w.dim == 0:
        raise DomainError("principal decomposition needs two nonzero subspaces")
    m = gram(w.onb, v.onb)  # q x p matrix of Proj from v to w
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    e_basis = v.onb @ vt.conj().T
    f_basis = w.onb @ u
    angles = np.arccos(np.clip(s, 0.0, 1.0))
    return PrincipalDecomposition(e_basis, f_basis, angles)


def _require_subset(u: Subspace, v: Subspace):
    _require_same_space(u, v)
    if u.dim > v.dim:
        raise DomainError(f"a {u.dim}-dimensional space cannot sit inside a {v.dim}-dimensional one")
    residual = u.onb - v.onb @ gram(v.onb, u.onb)
    if float(np.abs(residual).max(initial=0.0)) > ORTHOGONALITY_DEFECT:
        raise DomainError("the first subspace is not contained in the second")


def is_principal_subspace(
    u: Subspace, v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Whether u (inside v) is spanned by principal vectors of v w.r.t. w.

    This is the two-part principal partition of v into u and its complement
    inside v: Proj_w(u) is orthogonal to Proj_w of that complement.  The zero
    subspace and subspaces orthogonal to w count as principal.
    """
    return is_principal_partition(Partition((u, orthogonal_complement_within(u, v))), w, tol)


@dataclass(frozen=True)
class Partition:
    """An orthogonal internal direct-sum decomposition; parts may be zero.  Built only from
    parts of one space that are pairwise orthogonal (``direct_sum`` raises otherwise), it
    keeps their direct sum, whose columns are the parts' bases in order."""

    parts: tuple[Subspace, ...]
    _parent: Subspace = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.parts:
            raise DomainError("a partition needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "_parent", direct_sum(*self.parts))

    def parent(self) -> Subspace:
        """The direct sum of the parts, built with the partition."""
        return self._parent


def _projected_parts(partition: Partition, w: Subspace, tol: Tolerance) -> np.ndarray:
    """The ``project_subspace`` bases of the parts, stacked in order: one SVD per part."""
    return np.hstack([project_subspace(p, w, tol).onb for p in partition.parts])


def is_principal_partition(partition: Partition, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether an orthogonal partition of some subspace is principal w.r.t. w,
    i.e. the projected parts are pairwise orthogonal: their stacked bases pass
    ``direct_sum``'s ORTHOGONALITY_DEFECT, so only ``tol.rank_eps`` (cutting
    each projection) matters, never the grading tolerance."""
    return _orthonormality_defect(_projected_parts(partition, w, tol)) <= ORTHOGONALITY_DEFECT
