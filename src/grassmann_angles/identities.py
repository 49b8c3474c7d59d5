"""Executable checkers for the angle identities, each returning a residual.

Every checker validates its geometric preconditions (raising DomainError
otherwise), evaluates both sides of its identity numerically, and returns an
:class:`IdentityCheck` whose ``passed`` flag is exactly
``residual <= residual_eps``.  The ``run_suite`` driver feeds the checkers
seeded random configurations for either field, drawn by the builders of
``sampling``, the module of the public ``random_instance``.

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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .angles import complementary_angle, grassmann_angle
from .errors import DimensionMismatchError, DomainError
from .exterior import (
    AMBIENT_LIMIT,
    Blade,
    _minors,
    _oriented_cos_of_frames,
    _require_ambient_cap,
    _unit_frame,
)
from .fields import DEFAULT_TOLERANCE, SUITE_NAMES, Field, Tolerance, _is_integer, as_basis
from .linalg import gram, scale_columns
from .sampling import (
    MAX_DRAWS,
    _haar,
    _parts,
    _span,
    _within,
    random_blade,
    random_matrix,
    random_orthogonal_basis,
    rng_from_seed,
)
from .subspaces import (
    ORTHOGONALITY_DEFECT,
    Partition,
    Subspace,
    _coordinate_cos_squared,
    _index_stack,
    _orthonormality_defect,
    _projected_parts,
    _require_same_space,
    _require_subset,
    _stacked_cos_squared,
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
        return asdict(self)


def _check(name: str, residual: float, witness: str, tol: Tolerance) -> IdentityCheck:
    return IdentityCheck(name, float(residual), bool(residual <= tol.residual_eps), witness)


def _orthogonal_basis_matrix(basis, field: Field, n: int) -> np.ndarray:
    """The unit columns of a full orthogonal (not necessarily normalized)
    basis of the n-dimensional space, after validating it.  The columns go
    through ``scale_columns`` first, as in ``orthonormalize``; each is then
    divided by its norm."""
    mat, _ = as_basis(basis, field)
    if mat.shape != (n, n):
        raise DimensionMismatchError(f"need {n} basis vectors of dimension {n}, got shape {mat.shape}")
    mat = scale_columns(mat)
    norms = np.linalg.norm(mat, axis=0)
    if not norms.all():
        raise DomainError("basis vectors must be nonzero")
    units = mat / norms
    if not _orthonormality_defect(units) <= ORTHOGONALITY_DEFECT:
        raise DomainError("basis vectors are not orthogonal")
    return units


def check_line_partition(line: Subspace, partition: Partition, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Squared angle cosines of a line against an orthogonal partition of the
    whole space sum to 1 (the direction-cosine identity, any dimension,
    either field)."""
    parent = partition.parent()
    _require_same_space(line, parent)
    if line.dim != 1:
        raise DomainError(f"need a line, got dimension {line.dim}")
    if parent.dim != line.ambient_dim:
        raise DomainError("partition must decompose the full ambient space")
    terms = [grassmann_angle(line, part).cos_squared for part in partition.parts]
    witness = f"line in dim {line.ambient_dim} ({line.field.value}), parts {[p.dim for p in partition.parts]}"
    return _check("line-partition", abs(sum(terms) - 1.0), witness, tol)


def _coordinate_sum(v: Subspace, basis, q: int) -> float:
    """Sum of the squared cosines of V against the C(n, q) coordinate
    q-subspaces W_I of an orthogonal basis (of W_I with V when p > q), all
    in one stacked determinant, after validating the basis and q."""
    n = v.ambient_dim
    units = _orthogonal_basis_matrix(basis, v.field, n)
    _require_ambient_cap(n)
    if not (_is_integer(q) and 0 <= q <= n):
        raise DomainError(f"coordinate dimension must be an integer in [0, {n}], got {q!r}")
    return np.sum(_coordinate_cos_squared(units, v.onb, q))


def check_coordinate_pythagorean(v: Subspace, basis, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Squared cosines of a p-dimensional subspace against all coordinate
    p-subspaces of an orthogonal basis sum to 1: the binomial sum at q = p.
    """
    total = _coordinate_sum(v, basis, v.dim)
    p, n = v.dim, v.ambient_dim
    if p < 1:
        raise DomainError("the subspace must be nonzero")
    witness = f"dim {p} subspace vs C({n},{p}) coordinate subspaces ({v.field.value})"
    return _check("pythagorean", abs(total - 1.0), witness, tol)


def check_binomial_identities(v: Subspace, basis, q: int, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Mixed-dimension coordinate sums: against the coordinate q-subspaces
    W_I of an orthogonal basis,

      p <= q:  sum_I cos^2(angle of V with W_I)  = C(n-p, n-q)
      p >  q:  sum_I cos^2(angle of W_I with V)  = C(p, q)

    All C(n, q) terms are evaluated in one stacked determinant.
    """
    total = _coordinate_sum(v, basis, q)
    n, p = v.ambient_dim, v.dim
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
    the C(n, p) minors of one Gram matrix, in one stacked determinant (``exterior._minors``).
    """
    if nu.grade != omega.grade or nu.grade < 1:
        raise DomainError("need two nonzero blades of the same positive grade")
    _require_same_space(nu, omega)
    units = _orthogonal_basis_matrix(basis, nu.field, nu.ambient_dim)
    frames = _unit_frame(nu, tol), _unit_frame(omega, tol)
    lhs = _oriented_cos_of_frames(*frames)  # raises on a zero blade
    rows = _index_stack(nu.ambient_dim, nu.grade)
    cv, cw = (_minors(phase, q, units, rows) for phase, q in frames)
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
    _require_ambient_cap(v.ambient_dim)
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

    the last factor being the complementary-angle cosine of the projections:
    ``check_partition_chain`` on the two-part partition, renamed ``direct-sum``.
    """
    return replace(check_partition_chain(Partition((v1, v2)), w, tol), name="direct-sum")


def check_partition_chain(partition: Partition, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """k-part extension of the direct-sum rule, for the parts V_i of V: cos(V, W) = prod_i
    cos(V_i, W) times prod_{i<k} cos_perp(P(V_i), P(V_i+1 + ... + V_k)), P the projection
    onto W; each tail is a trailing column block of the partition's stored direct sum V."""
    parts, parent = partition.parts, partition.parent()
    lhs = grassmann_angle(parent, w).cosine
    rhs, start = 1.0, 0
    for part in parts:
        rhs *= grassmann_angle(part, w).cosine
    for part in parts[:-1]:
        start += part.dim
        tail = Subspace(parent.onb[:, start:], parent.field, _validate=False)
        rhs *= complementary_angle(project_subspace(part, w, tol), project_subspace(tail, w, tol)).cosine
    witness = f"parts {[p.dim for p in parts]} vs dim {w.dim} in {w.ambient_dim} ({w.field.value})"
    return _check("partition-chain", abs(lhs - rhs), witness, tol)


def check_partition_converse(partition: Partition, w: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> IdentityCheck:
    """Equivalence, for V not partially orthogonal to W: an orthogonal
    partition of V is principal w.r.t. W exactly when the angle cosine of V
    factors as the product of the part cosines.

    ORTHOGONALITY_DEFECT decides both sides, on the projected parts and on
    the product's miss; ``tol.residual_eps`` grades only a principal miss.
    A non-principal partition whose product holds, and violated
    preconditions (partial orthogonality), give a failed check with
    infinite residual at every tolerance rather than an exception, so suite
    runs can report them.
    """
    parent = partition.parent()
    if parent.dim < 1 or w.dim < 1:
        raise DomainError("need nonzero subspaces")
    stacked = _projected_parts(partition, w, tol)
    principal = _orthonormality_defect(stacked) <= ORTHOGONALITY_DEFECT
    # principal: the projected parts are an orthonormal basis of Proj_W(V)
    projected_dim = stacked.shape[1] if principal else project_subspace(parent, w, tol).dim
    if projected_dim < parent.dim:
        return IdentityCheck("converse", math.inf, False, "precondition violated: V is partially orthogonal to W")
    product = math.prod(grassmann_angle(part, w).cosine for part in partition.parts)
    diff = abs(grassmann_angle(parent, w).cosine - product)
    if principal:
        residual, outcome = diff, "principal partition, product rule"
    elif diff <= ORTHOGONALITY_DEFECT:
        residual, outcome = math.inf, "NON-principal partition but the product rule held"
    else:
        residual, outcome = 0.0, f"non-principal partition, product rule off by {diff:.3e} as it should be"
    witness = (
        f"parts {[p.dim for p in partition.parts]} vs dim {w.dim} in {w.ambient_dim} "
        f"({w.field.value}): {outcome}"
    )
    return _check("converse", residual, witness, tol)


# ---------------------------------------------------------------------------
# seeded suite driver


def _random_composition(rng, total: int, allow_zero: bool = True) -> list[int]:
    """Random part sizes summing to ``total`` >= 1."""
    k = int(rng.integers(1, total + 1))
    cuts = np.sort(rng.choice(np.arange(1, total), size=k - 1, replace=False)) if k > 1 else np.array([], int)
    dims = np.diff(np.concatenate([[0], cuts, [total]])).tolist()
    if allow_zero and rng.uniform() < 0.15:
        dims.insert(int(rng.integers(0, len(dims) + 1)), 0)
    return dims


def _trial_line_partition(rng, field, n_max, tol):
    n = int(rng.integers(1, n_max + 1))
    dims = _random_composition(rng, n)
    unitary, line = _haar([random_matrix(rng, field, n, n) for _ in range(2)])
    return check_line_partition(_span(line, field, 1), _parts(unitary, field, dims), tol)


def _subspace_and_basis(rng, field, n, p):
    """A trial's Haar p-dimensional V and orthogonal basis of the full space (as from
    ``random_orthogonal_basis``), from one ``_haar`` call after all their draws; V = 0 draws nothing."""
    draws = [random_matrix(rng, field, n, n) for _ in range(2 if p else 1)]
    scale = rng.uniform(0.5, 2.0, size=n)
    unitaries = _haar(draws)
    v = _span(unitaries[0], field, p) if p else Subspace.zero(n, field)
    return v, unitaries[-1] * scale


def _trial_pythagorean(rng, field, n_max, tol):
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(1, n + 1))
    return check_coordinate_pythagorean(*_subspace_and_basis(rng, field, n, p), tol)


def _trial_binomial(rng, field, n_max, tol):
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(0, n + 1))
    q = int(rng.integers(0, n + 1))
    return check_binomial_identities(*_subspace_and_basis(rng, field, n, p), q, tol)


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
    qv, qu, qw = _haar([random_matrix(rng, field, k, k) for k in (n, p, n)])
    v = _span(qv, field, p)
    return check_weighted_average(_within(v, _span(qu, field, r)), v, _span(qw, field, q), tol)


def _split_trial(rng, field, n, p, dims_of):
    """A trial's Haar p-dimensional parent split into parts of the widths ``dims_of(rng)``, and a
    Haar W of random dimension, from one ``_haar`` call after all their draws in stream order."""
    draws = [random_matrix(rng, field, n, n)]
    dims = dims_of(rng)
    draws.append(random_matrix(rng, field, p, p))
    q = int(rng.integers(1, n + 1))
    draws.append(random_matrix(rng, field, n, n))
    qv, mix, qw = _haar(draws)
    return _parts(_span(qv, field, p).onb @ mix, field, dims), _span(qw, field, q)


def _trial_direct_sum(rng, field, n_max, tol):
    n = int(rng.integers(2, n_max + 1))
    d1 = int(rng.integers(1, n))
    d2 = int(rng.integers(1, n - d1 + 1))
    partition, w = _split_trial(rng, field, n, d1 + d2, lambda rng: [d1, d2])
    return check_partition_chain(partition, w, tol)  # check_direct_sum on the parts, built once


def _trial_partition_chain(rng, field, n_max, tol):
    n = int(rng.integers(2, n_max + 1))
    p = int(rng.integers(2, n + 1))
    partition, w = _split_trial(rng, field, n, p, lambda rng: _random_composition(rng, p))
    return check_partition_chain(partition, w, tol)


_MIN_COSINE, _MIN_GAP = 0.3, 0.15  # _principal_pair's margins: smallest principal cosine, spread


def _principal_pair(rng, field, n, p):
    """The principal decomposition of V w.r.t. W, and W, for dim V = p <= dim W = q < n
    (or p = q = n = 2, where V = W is the plane and every partition is principal): V
    nowhere near partially orthogonal to W and, if q < n and p >= 2, two well-separated
    principal cosines.

    The margins keep both sides of the converse equivalence decidable at
    ORTHOGONALITY_DEFECT: the 45-degree mixing of the extreme principal vectors
    then perturbs the product rule by at least ~_MIN_COSINE^4 * _MIN_GAP^2 / 2.
    """
    for _ in range(MAX_DRAWS):
        q = int(rng.integers(p, n)) if p < n else p
        qv, qw = _haar([random_matrix(rng, field, n, n) for _ in range(2)])
        w = _span(qw, field, q)
        decomposition = principal_decomposition(_span(qv, field, p), w)
        cosines = decomposition.cosines
        if cosines[-1] < _MIN_COSINE:
            continue
        if p >= 2 and q < n and (cosines[0] - cosines[-1]) < _MIN_GAP:
            continue
        return decomposition, w
    raise DomainError(f"no subspace pair in dimension {n} met the margins in {MAX_DRAWS} draws")


def _grouped_principal_partition(rng, e_basis: np.ndarray, field) -> Partition:
    p = e_basis.shape[1]
    order = rng.permutation(p)
    dims = _random_composition(rng, p, allow_zero=False)
    # the columns order[start : start + d] of each group, in increasing order
    idx = np.lexsort((order, np.repeat(np.arange(len(dims)), dims)))
    return _parts(e_basis[:, order[idx]], field, dims)


def _trial_converse(rng, field, n_max, tol):
    n = int(rng.integers(3, n_max + 1)) if n_max >= 3 else 2
    p = int(rng.integers(2, n)) if n >= 3 else 2  # p <= n-1 leaves room for q < n
    decomposition, w = _principal_pair(rng, field, n, p)
    e_basis = decomposition.e_basis
    cases = [check_partition_converse(_grouped_principal_partition(rng, e_basis, field), w, tol)]
    if w.dim < n:
        # mixing the extreme principal vectors by 45 degrees breaks both sides
        g1 = (e_basis[:, 0] + e_basis[:, p - 1]) / np.sqrt(2.0)
        g2 = (e_basis[:, 0] - e_basis[:, p - 1]) / np.sqrt(2.0)
        rotated = np.concatenate([g1[:, None], g2[:, None], e_basis[:, 1 : p - 1]], axis=1)
        cases.append(check_partition_converse(_parts(rotated, field, [1, 1, p - 2] if p > 2 else [1, 1]), w, tol))
    return _check("converse", max(c.residual for c in cases), " | ".join(c.witness for c in cases), tol)


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

# suites whose trials draw at least two dimensions
_NEEDS_TWO = {"direct-sum", "partition-chain", "converse"}


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
    Raises DomainError before any trial runs unless ``trials >= 1``, ``1 <= n_max <= 16``
    and ``seed >= 0`` are integers (a bool is not) and ``field`` is a Field or None, and on
    an empty selection, an unknown name, or a suite that needs ``n_max >= 2``.
    """
    for arg, value in (("trials", trials), ("n_max", n_max), ("seed", seed)):
        if not _is_integer(value):
            raise DomainError(f"{arg} must be an integer, got {value!r}")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if not 1 <= n_max <= AMBIENT_LIMIT:
        raise DomainError(f"n_max must be in [1, {AMBIENT_LIMIT}], got {n_max}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    if not (field is None or isinstance(field, Field)):
        raise DomainError(f"field must be a Field or None, got {field!r}")
    if isinstance(suites, str):
        names = list(SUITE_NAMES) if suites == "all" else [suites]
    else:
        names = list(suites)
    if not names:
        raise DomainError(f"no suite selected; known: {', '.join(SUITE_NAMES)}")
    for name in names:
        if name not in _TRIALS:
            raise DomainError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    for name in names:
        if n_max < 2 and name in _NEEDS_TWO:
            raise DomainError(f"the {name} suite needs ambient dimension >= 2")
    fields = [Field.REAL, Field.COMPLEX] if field is None else [field]
    results = []
    for name in names:
        trial_fn = _TRIALS[name]
        for f in fields:
            for t in range(trials):
                rng = rng_from_seed((seed, SUITE_NAMES.index(name), 0 if f is Field.REAL else 1, t))
                results.append(replace(trial_fn(rng, f, n_max, tol), name=f"{name}[{f.value}]#{t}"))
    return results
