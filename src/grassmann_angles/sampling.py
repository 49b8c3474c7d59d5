"""Seeded random instance generators for both fields.

Everything goes through ``numpy.random.Generator`` seeded from integers (or
tuples of integers), so the same seed always reproduces the same subspaces,
partitions, and blades.  Every dimension argument must be an integer (a bool
is not, nor is 2.0), as for ``run_suite``; anything else raises DomainError.
``random_blade`` and ``random_mixing`` share one rejection loop on a
Gaussian's condition number.

A Haar unitary is the Q factor of a square Gaussian draw with R's diagonal
made positive (Mezzadri's recipe).  Drawing and factoring are separate steps:
a caller makes all its draws first, in stream order, and then factors them
in one ``_haar`` call, which takes one stacked ``np.linalg.qr`` per size.
numpy's stacked QR runs the same LAPACK routine on each matrix, so every
unitary, and every subspace and partition read off one, is bit for bit the
one a QR per draw gives, and the random stream is the same as drawing and
factoring one at a time.  The suite trials of ``identities`` use it this way,
the generators here each make one draw and one ``_haar`` call, and both read
subspaces, subspaces of a subspace and partitions off the unitaries through
``_span``, ``_within`` and ``_parts`` alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .exterior import Blade
from .fields import Field, _is_integer, _require_ambient_dim
from .subspaces import Partition, Subspace

# Rejection loops give up with DomainError after this many draws.  The
# hardest request, a well-separated 16 x 16 blade, accepts ~1 draw in 3000.
MAX_DRAWS = 100_000


def _require_integers(what: str, *values) -> tuple:
    """The dimension arguments ``values`` as given; DomainError unless each is an integer."""
    if not all(map(_is_integer, values)):
        raise DomainError(f"{what} must be integers, got {list(values)}")
    return values


def rng_from_seed(seed) -> np.random.Generator:
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise DomainError(f"seed must be a nonnegative integer or a tuple of them, got {seed!r}") from None


def random_matrix(rng: np.random.Generator, field: Field, rows: int, cols: int) -> np.ndarray:
    if min(_require_integers("dimensions", rows, cols)) < 0:
        raise DomainError(f"dimensions must be nonnegative, got {[rows, cols]}")
    if field is Field.REAL:
        return rng.standard_normal((rows, cols))
    m = np.empty((rows, cols), field.dtype)
    m.real = rng.standard_normal((rows, cols))
    m.imag = rng.standard_normal((rows, cols))
    return m


def _conditioned_matrix(rng: np.random.Generator, field: Field, rows: int, cols: int, cond_limit: float) -> np.ndarray:
    """The first Gaussian rows x cols draw whose condition number is at most ``cond_limit``;
    an empty draw has no condition number, so both sizes must be at least 1."""
    if min(_require_integers("dimensions", rows, cols)) < 1:
        raise DomainError(f"a conditioned draw needs sizes of at least 1, got {rows} x {cols}")
    if not cond_limit >= 1:  # no matrix has a condition number below 1 (and NaN bounds nothing)
        raise DomainError(f"condition number limit must be at least 1, got {cond_limit!r}")
    for _ in range(MAX_DRAWS):
        m = random_matrix(rng, field, rows, cols)
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > 0.0 and s[0] / s[-1] <= cond_limit:
            return m
    raise DomainError(f"no {rows} x {cols} draw had condition number <= {cond_limit} in {MAX_DRAWS} draws")


def _haar(draws: list[np.ndarray]) -> list[np.ndarray]:
    """The Haar unitaries of the square Gaussian ``draws``, in their order: the Q
    factors with R's diagonal made positive, from one stacked QR per size."""
    unitaries = [None] * len(draws)
    for n in {len(g) for g in draws}:
        at = [i for i, g in enumerate(draws) if len(g) == n]
        # a lone draw is factored as it is: numpy's stacked QR costs more per call
        q, r = np.linalg.qr(np.array([draws[i] for i in at]) if len(at) > 1 else draws[at[0]])
        d = r.diagonal(0, -2, -1)
        q *= (d / abs(d))[..., None, :]
        for i, u in zip(at, q.reshape(len(at), n, n)):
            unitaries[i] = u
    return unitaries


def _span(unitary: np.ndarray, field: Field, dim: int) -> Subspace:
    """The subspace spanned by the first ``dim`` columns of a Haar unitary (a contiguous copy)."""
    return Subspace(unitary[:, :dim], field, _validate=False)


def _within(parent: Subspace, coeffs: Subspace) -> Subspace:
    """The subspace of ``parent`` whose basis has the coordinates ``coeffs.onb`` in parent's basis."""
    return Subspace(parent.onb @ coeffs.onb, parent.field, _validate=False)


def _parts(columns: np.ndarray, field: Field, dims) -> Partition:
    """The partition into consecutive column blocks of the given widths of an orthonormal ``columns``."""
    parts, start = [], 0
    for d in dims:
        parts.append(Subspace(columns[:, start : start + d], field, _validate=False))
        start += d
    return Partition(tuple(parts))


def random_unitary(rng: np.random.Generator, field: Field, n: int) -> np.ndarray:
    """Haar random orthogonal/unitary matrix (QR with phase fix)."""
    return _haar([random_matrix(rng, field, n, n)])[0]


def random_subspace(rng: np.random.Generator, field: Field, n: int, dim: int) -> Subspace:
    _require_integers("dimensions", n, dim)
    if not 0 <= dim <= n:
        raise DomainError(f"cannot fit a {dim}-dimensional subspace in dimension {n}")
    if dim == 0:
        return Subspace.zero(n, field)
    return _span(random_unitary(rng, field, n), field, dim)


def random_orthogonal_basis(rng: np.random.Generator, field: Field, n: int) -> np.ndarray:
    """Columns form an orthogonal, deliberately not normalized, basis of the full space."""
    return random_subspace(rng, field, n, n).onb * rng.uniform(0.5, 2.0, size=n)


def random_blade(rng: np.random.Generator, field: Field, n: int, grade: int) -> Blade:
    """Random nonzero blade with well-separated factors."""
    if not 1 <= grade <= n:
        raise DomainError(f"cannot build a grade-{grade} blade in dimension {n}")
    factors = _conditioned_matrix(rng, field, n, grade, 10.0) * rng.uniform(0.5, 2.0, size=grade)
    coefficient = 1.0
    if field is Field.COMPLEX:
        coefficient = np.exp(2j * np.pi * rng.uniform())
    elif rng.uniform() < 0.5:
        coefficient = -1.0
    return Blade(factors, field=field, coefficient=coefficient)


def random_mixing(rng: np.random.Generator, field: Field, dim: int, cond_limit: float = 100.0) -> np.ndarray:
    """Random well-conditioned square matrix (for turning orthonormal bases
    into generic raw bases without tripping degeneracy checks)."""
    return _conditioned_matrix(rng, field, dim, dim, cond_limit)


def random_instance(field: Field, n: int, dims, seed) -> list[Subspace]:
    """Independent generic subspaces of the given dimensions, reproducible
    from the seed."""
    n, *dims = map(int, _require_integers("dimensions", n, *dims))
    _require_ambient_dim(n)
    rng = rng_from_seed(seed)
    if any(not 0 <= d <= n for d in dims):
        raise DomainError(f"dimensions {dims} are infeasible in ambient dimension {n}")
    return [random_subspace(rng, field, n, d) for d in dims]
