"""Executable checkers for the angle identities, each returning a residual.

Every checker validates its geometric preconditions (raising DomainError
otherwise), evaluates both sides of its identity numerically, and returns an
:class:`IdentityCheck` whose ``passed`` flag is exactly
``residual <= residual_eps``.  The ``run_suite`` driver feeds the checkers
seeded random configurations for either field.

The checkers that sum over coordinate subspaces (pythagorean, binomial,
oriented-sum, weighted-average) do not call an angle route per term: they
take the projection matrices of all C(n, p) terms out of one Gram matrix
and evaluate them in one stacked determinant.  Every operand there is
orthonormal: the orthogonal bases are normalized first (after
``linalg.scale_columns``, so no norm over- or underflows) and the blades are
replaced by their unit frames, so the determinant loses nothing to
conditioning or scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import complementary_angle, grassmann_angle
from .errors import DomainError
from .exterior import Blade, _oriented_cos_of_frames, _unit_frame
from .fields import DEFAULT_TOLERANCE, SUITE_NAMES, Field, Tolerance, as_basis
from .linalg import gram, scale_columns
# random_instance is re-exported: the seeded generators are part of this
# module's public surface alongside the checkers
from .sampling import (
    MAX_DRAWS,
    random_blade,
    random_instance,  # noqa: F401
    random_orthogonal_basis,
    random_partition,
    random_subspace,
    random_subspace_within,
    rng_from_seed,
    split_subspace,
)
from .subspaces import (
    ORTHOGONALITY_DEFECT,
    Partition,
    Subspace,
    _coordinate_cos_squared,
    _index_stack,
    _require_subset,
    _stacked_cos_squared,
    direct_sum,
    is_partially_orthogonal,
    is_principal_partition,
    principal_cosines,
    principal_decomposition,
    project_subspace,
)

__all__ = [
    "IdentityCheck",
    "check_line_partition",
    "check_coordinate_pythagorean",
    "check_binomial_identities",
    "check_oriented_sum",
    "check_weighted_average",
    "check_direct_sum",
    "check_partition_chain",
    "check_partition_converse",
    "random_instance",
    "SUITE_NAMES",
    "run_suite",
]


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one identity evaluation on one configuration."""

    name: str
    residual: float
    passed: bool
    witness: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "passed": self.passed,
            "witness": self.witness,
        }


def _check(name: str, residual: float, witness: str, tol: Tolerance) -> IdentityCheck:
    return IdentityCheck(name, float(residual), bool(residual <= tol.residual_eps), witness)


def _orthogonal_basis_matrix(basis, field: Field) -> np.ndarray:
    """The unit columns of a full orthogonal (not necessarily normalized)
    basis, after validating it.  The columns go through ``scale_columns``
    first, as in ``orthonormalize``; each is then divided by its norm."""
    mat, _ = as_basis(basis, field)
    n = mat.shape[0]
    if mat.shape[1] != n:
        raise DomainError(f"need {n} basis vectors for dimension {n}, got {mat.shape[1]}")
    mat = scale_columns(mat)
    norms = np.linalg.norm(mat, axis=0)
    if not norms.all():
        raise DomainError("basis vectors must be nonzero")
    units = mat / norms
    cross = np.abs(gram(units, units))
    np.fill_diagonal(cross, 0.0)
    if not float(np.max(cross, initial=0.0)) <= ORTHOGONALITY_DEFECT:
        raise DomainError("basis vectors are not orthogonal")
    return units


def check_line_partition(line: Subspace, partition: Partition, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Squared angle cosines of a line against an orthogonal partition of the
    whole space sum to 1 (the direction-cosine identity, any dimension,
    either field)."""
    if line.dim != 1:
        raise DomainError(f"need a line, got dimension {line.dim}")
    parent = partition.parent()
    if parent.dim != line.ambient_dim or parent.ambient_dim != line.ambient_dim:
        raise DomainError("partition must decompose the full ambient space")
    terms = [grassmann_angle(line, part).cos_squared for part in partition.parts]
    witness = f"line in dim {line.ambient_dim} ({line.field.value}), parts {[p.dim for p in partition.parts]}"
    return _check("line-partition", abs(sum(terms) - 1.0), witness, tol)


def check_coordinate_pythagorean(v: Subspace, basis, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Squared cosines of a p-dimensional subspace against all coordinate
    p-subspaces of an orthogonal basis sum to 1.

    All C(n, p) terms are evaluated in one stacked determinant.
    """
    units = _orthogonal_basis_matrix(basis, v.field)
    if units.shape[0] != v.ambient_dim:
        raise DomainError("basis and subspace ambient dimensions differ")
    p, n = v.dim, v.ambient_dim
    if p < 1:
        raise DomainError("the subspace must be nonzero")
    total = np.sum(_coordinate_cos_squared(units, v.onb, p))
    witness = f"dim {p} subspace vs C({n},{p}) coordinate subspaces ({v.field.value})"
    return _check("pythagorean", abs(total - 1.0), witness, tol)


def check_binomial_identities(v: Subspace, basis, q: int, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Mixed-dimension coordinate sums: against the coordinate q-subspaces
    W_I of an orthogonal basis,

      p <= q:  sum_I cos^2(angle of V with W_I)  = C(n-p, n-q)
      p >  q:  sum_I cos^2(angle of W_I with V)  = C(p, q)

    All C(n, q) terms are evaluated in one stacked determinant.
    """
    units = _orthogonal_basis_matrix(basis, v.field)
    n, p = v.ambient_dim, v.dim
    if units.shape[0] != n:
        raise DomainError("basis and subspace ambient dimensions differ")
    if not 0 <= q <= n:
        raise DomainError(f"coordinate dimension must be in [0, {n}], got {q}")
    total = np.sum(_coordinate_cos_squared(units, v.onb, q))
    target = float(math.comb(n - p, n - q) if p <= q else math.comb(p, q))
    witness = f"p={p}, q={q}, n={n} ({v.field.value}), target {target:g}"
    return _check("binomial", abs(total - target), witness, tol)


def check_oriented_sum(nu: Blade, omega: Blade, basis, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Oriented-cosine expansion over the coordinate subspaces of an
    orthogonal basis (orientations taken from the coordinate blades):

      cos(V, W) = sum_I cos(V, X_I) * conj(cos(W, X_I)),

    plus the derived inequality for the unoriented cosines,
    cos(angle of V with W) <= sum_I cos(.,X_I) cos(.,X_I) moduli.
    Over the reals the conjugation is vacuous.

    Each coordinate cosine is ``conj(phase) det(Q* U_I)`` for the unit
    frame (phase, Q) of a blade and the columns U_I of the normalized basis:
    the C(n, p) minors of one Gram matrix, taken in one stacked determinant.
    """
    if nu.grade != omega.grade or nu.grade < 1:
        raise DomainError("need two nonzero blades of the same positive grade")
    if nu.field is not omega.field or nu.ambient_dim != omega.ambient_dim:
        raise DomainError("blades live in different spaces")
    units = _orthogonal_basis_matrix(basis, nu.field)
    if units.shape[0] != nu.ambient_dim:
        raise DomainError("basis and blades ambient dimensions differ")
    frames = _unit_frame(nu, tol), _unit_frame(omega, tol)
    lhs = _oriented_cos_of_frames(*frames)  # raises on a zero blade
    rows = _index_stack(nu.ambient_dim, nu.grade)
    cv, cw = (phase.conjugate() * np.linalg.det(np.moveaxis(gram(q, units)[:, rows], 1, 0)) for phase, q in frames)
    rhs = np.sum(cv * np.conjugate(cw))
    bound = np.sum(np.abs(cv) * np.abs(cw))
    residual = max(abs(lhs - rhs), max(abs(lhs) - bound, 0.0))
    witness = f"grade {nu.grade} blades in dim {nu.ambient_dim} ({nu.field.value})"
    return _check("oriented-sum", residual, witness, tol)


def check_weighted_average(u: Subspace, v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """cos^2 of (U, W) is the weighted average of the cos^2 of (V_I, W) over
    the coordinate r-subspaces V_I of a principal basis of V w.r.t. W, with
    weights cos^2 of (U, V_I); the weights themselves sum to 1.

    The C(p, r) weights and the C(p, r) terms are each evaluated in one
    stacked determinant.
    """
    if u.dim < 1 or v.dim < 1 or w.dim < 1:
        raise DomainError("all three subspaces must be nonzero")
    _require_subset(u, v)
    e_basis = principal_decomposition(v, w).e_basis
    lhs = grassmann_angle(u, w).cos_squared
    rows = _index_stack(v.dim, u.dim)
    weights = np.clip(_stacked_cos_squared(gram(e_basis, u.onb)[rows]), 0.0, 1.0)  # V_I* U
    terms = np.clip(_stacked_cos_squared(np.moveaxis(gram(w.onb, e_basis)[:, rows], 1, 0)), 0.0, 1.0)  # W* V_I
    residual = max(abs(lhs - np.sum(weights * terms)), abs(np.sum(weights) - 1.0))
    witness = f"r={u.dim} inside p={v.dim}, q={w.dim}, n={v.ambient_dim} ({v.field.value})"
    return _check("weighted-average", residual, witness, tol)


def check_direct_sum(v1: Subspace, v2: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Three-factor product rule for the angle of an orthogonal direct sum:

      cos(V1+V2, W) = cos(V1, W) cos(V2, W) cos_perp(P(V1), P(V2)),

    the last factor being the complementary-angle cosine of the projections.
    """
    combined = direct_sum(v1, v2)  # raises unless v1 is orthogonal to v2
    lhs = grassmann_angle(combined, w).cosine
    p1 = project_subspace(v1, w, tol)
    p2 = project_subspace(v2, w, tol)
    rhs = (
        grassmann_angle(v1, w).cosine
        * grassmann_angle(v2, w).cosine
        * complementary_angle(p1, p2).cosine
    )
    witness = f"dims {v1.dim}+{v2.dim} vs {w.dim} in {w.ambient_dim} ({w.field.value})"
    return _check("direct-sum", abs(lhs - rhs), witness, tol)


def check_partition_chain(partition: Partition, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """k-part extension of the direct-sum rule: the angle cosine of the whole
    equals the product of the part cosines times the chain of complementary
    cosines of projected tails."""
    parts = partition.parts
    parent = partition.parent()  # raises unless the parts are orthogonal
    lhs = grassmann_angle(parent, w).cosine
    rhs = 1.0
    for part in parts:
        rhs *= grassmann_angle(part, w).cosine
    for i in range(len(parts) - 1):
        tail = direct_sum(*parts[i + 1 :])
        rhs *= complementary_angle(project_subspace(parts[i], w, tol), project_subspace(tail, w, tol)).cosine
    witness = f"parts {[p.dim for p in parts]} vs dim {w.dim} in {w.ambient_dim} ({w.field.value})"
    return _check("partition-chain", abs(lhs - rhs), witness, tol)


def check_partition_converse(partition: Partition, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Equivalence, for V not partially orthogonal to W: an orthogonal
    partition of V is principal w.r.t. W exactly when the angle cosine of V
    factors as the product of the part cosines.

    Violated preconditions (partial orthogonality) produce a failed check
    with infinite residual rather than an exception, so suite runs can
    report them.
    """
    parent = partition.parent()
    if parent.dim < 1 or w.dim < 1:
        raise DomainError("need nonzero subspaces")
    if is_partially_orthogonal(parent, w, tol):
        return IdentityCheck(
            "converse", math.inf, False, "precondition violated: V is partially orthogonal to W"
        )
    principal = is_principal_partition(partition, w, tol)
    product = 1.0
    for part in partition.parts:
        product *= grassmann_angle(part, w).cosine
    diff = abs(grassmann_angle(parent, w).cosine - product)
    product_holds = diff <= tol.residual_eps
    if principal:
        residual = diff
        outcome = "principal partition, product rule"
    elif product_holds:
        residual = 10.0 * tol.residual_eps  # equivalence broken: product held anyway
        outcome = "NON-principal partition but the product rule held"
    else:
        residual = 0.0
        outcome = f"non-principal partition, product rule off by {diff:.3e} as it should be"
    witness = (
        f"parts {[p.dim for p in partition.parts]} vs dim {w.dim} in {w.ambient_dim} "
        f"({w.field.value}): {outcome}"
    )
    return _check("converse", residual, witness, tol)


# ---------------------------------------------------------------------------
# seeded suite driver


def _random_composition(rng, total: int, allow_zero: bool = True) -> list[int]:
    """Random part sizes summing to ``total``."""
    if total == 0:
        return [0]
    k = int(rng.integers(1, total + 1))
    cuts = np.sort(rng.choice(np.arange(1, total), size=k - 1, replace=False)) if k > 1 else np.array([], int)
    dims = np.diff(np.concatenate([[0], cuts, [total]])).tolist()
    if allow_zero and rng.uniform() < 0.15:
        dims.insert(int(rng.integers(0, len(dims) + 1)), 0)
    return dims


def _trial_line_partition(rng, field, n_max, tol):
    n = int(rng.integers(1, n_max + 1))
    partition = random_partition(rng, field, n, _random_composition(rng, n))
    line = random_subspace(rng, field, n, 1)
    return check_line_partition(line, partition, tol)


def _trial_pythagorean(rng, field, n_max, tol):
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(1, n + 1))
    v = random_subspace(rng, field, n, p)
    return check_coordinate_pythagorean(v, random_orthogonal_basis(rng, field, n), tol)


def _trial_binomial(rng, field, n_max, tol):
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(0, n + 1))
    q = int(rng.integers(0, n + 1))
    v = random_subspace(rng, field, n, p)
    return check_binomial_identities(v, random_orthogonal_basis(rng, field, n), q, tol)


def _trial_oriented_sum(rng, field, n_max, tol):
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(1, n + 1))
    nu = random_blade(rng, field, n, p)
    omega = random_blade(rng, field, n, p)
    return check_oriented_sum(nu, omega, random_orthogonal_basis(rng, field, n), tol)


def _trial_weighted_average(rng, field, n_max, tol):
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(1, n + 1))
    r = int(rng.integers(1, p + 1))
    q = int(rng.integers(1, n + 1))
    v = random_subspace(rng, field, n, p)
    u = random_subspace_within(rng, v, r)
    w = random_subspace(rng, field, n, q)
    return check_weighted_average(u, v, w, tol)


def _trial_direct_sum(rng, field, n_max, tol):
    if n_max < 2:
        raise DomainError("the direct-sum suite needs ambient dimension >= 2")
    n = int(rng.integers(2, n_max + 1))
    d1 = int(rng.integers(1, n))
    d2 = int(rng.integers(1, n - d1 + 1))
    parent = random_subspace(rng, field, n, d1 + d2)
    v1, v2 = split_subspace(rng, parent, [d1, d2]).parts
    w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
    return check_direct_sum(v1, v2, w, tol)


def _trial_partition_chain(rng, field, n_max, tol):
    if n_max < 2:
        raise DomainError("the partition-chain suite needs ambient dimension >= 2")
    n = int(rng.integers(2, n_max + 1))
    p = int(rng.integers(2, n + 1))
    parent = random_subspace(rng, field, n, p)
    partition = split_subspace(rng, parent, _random_composition(rng, p))
    w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
    return check_partition_chain(partition, w, tol)


def _principal_pair(rng, field, n, p, min_cosine=0.3, min_gap=0.15):
    """V, W with dim V = p <= dim W < n, V nowhere near partially orthogonal
    to W, and (for p >= 2) two well-separated principal cosines.

    The margins keep both sides of the converse equivalence decidable at the
    1e-8 threshold: the 45-degree mixing of the extreme principal vectors
    then perturbs the product rule by at least ~min_cosine^4 * min_gap^2 / 2.
    """
    for _ in range(MAX_DRAWS):
        q = int(rng.integers(p, n)) if p < n else p  # keep q < n so angles are not all equal
        v = random_subspace(rng, field, n, p)
        w = random_subspace(rng, field, n, q)
        cosines = principal_cosines(v, w)
        if cosines[-1] < min_cosine:
            continue
        if p >= 2 and (cosines[0] - cosines[-1]) < min_gap:
            continue
        return v, w
    raise DomainError(f"no subspace pair in dimension {n} met the margins in {MAX_DRAWS} draws")


def _grouped_principal_partition(rng, e_basis: np.ndarray, field) -> Partition:
    p = e_basis.shape[1]
    order = rng.permutation(p)
    dims = _random_composition(rng, p, allow_zero=False)
    parts, start = [], 0
    for d in dims:
        cols = np.sort(order[start : start + d])
        parts.append(Subspace(e_basis[:, cols], field, _validate=False))
        start += d
    return Partition(tuple(parts))


def _trial_converse(rng, field, n_max, tol):
    if n_max < 2:
        raise DomainError("the converse suite needs ambient dimension >= 2")
    n = int(rng.integers(max(3, 2), n_max + 1)) if n_max >= 3 else 2
    cases = []
    if n >= 3:
        p = int(rng.integers(2, n))  # p <= n-1 leaves room for q < n
        v, w = _principal_pair(rng, field, n, p)
        e_basis = principal_decomposition(v, w).e_basis
        cases.append(check_partition_converse(_grouped_principal_partition(rng, e_basis, field), w, tol))

        # mixing the extreme principal vectors by 45 degrees breaks both sides
        g1 = (e_basis[:, 0] + e_basis[:, p - 1]) / np.sqrt(2.0)
        g2 = (e_basis[:, 0] - e_basis[:, p - 1]) / np.sqrt(2.0)
        rotated = [Subspace(g1[:, None], field, _validate=False), Subspace(g2[:, None], field, _validate=False)]
        if p > 2:
            rotated.append(Subspace(e_basis[:, 1 : p - 1], field, _validate=False))
        cases.append(check_partition_converse(Partition(tuple(rotated)), w, tol))
    else:
        # n = 2 leaves only the everywhere-principal full-space configuration
        v = random_subspace(rng, field, n, 2)
        w = random_subspace(rng, field, n, 2)
        e_basis = principal_decomposition(v, w).e_basis
        cases.append(check_partition_converse(_grouped_principal_partition(rng, e_basis, field), w, tol))

    residual = max(c.residual for c in cases)
    witness = " | ".join(c.witness for c in cases)
    return IdentityCheck("converse", residual, residual <= tol.residual_eps, witness)


_TRIALS = {
    "line-partition": _trial_line_partition,
    "pythagorean": _trial_pythagorean,
    "binomial": _trial_binomial,
    "oriented-sum": _trial_oriented_sum,
    "weighted-average": _trial_weighted_average,
    "direct-sum": _trial_direct_sum,
    "partition-chain": _trial_partition_chain,
    "converse": _trial_converse,
}


def run_suite(
    suites="all",
    field: Field | None = None,
    n_max: int = 6,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[IdentityCheck]:
    """Run seeded random trials of the selected identity checkers.

    ``suites`` is a name, an iterable of names, or "all"; ``field`` of None
    runs both fields.  Each (suite, field, trial) cell gets its own derived
    seed, so reports are reproducible and insensitive to the order cells run.
    """
    if isinstance(suites, str):
        names = list(SUITE_NAMES) if suites == "all" else [suites]
    else:
        names = list(suites)
    for name in names:
        if name not in _TRIALS:
            raise DomainError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    fields = [Field.REAL, Field.COMPLEX] if field is None else [field]
    results = []
    for name in names:
        trial_fn = _TRIALS[name]
        for f in fields:
            for t in range(trials):
                rng = rng_from_seed((seed, SUITE_NAMES.index(name), 0 if f is Field.REAL else 1, t))
                outcome = trial_fn(rng, f, n_max, tol)
                results.append(
                    IdentityCheck(
                        f"{name}[{f.value}]#{t}", outcome.residual, outcome.passed, outcome.witness
                    )
                )
    return results
