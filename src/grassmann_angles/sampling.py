"""Seeded random instance generators for both fields.

Everything goes through ``numpy.random.Generator`` seeded from integers (or
tuples of integers), so the same seed always reproduces the same subspaces,
partitions, and blades.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .exterior import Blade
from .fields import Field
from .subspaces import Partition, Subspace

# Rejection loops give up with DomainError after this many draws.  The
# hardest request, a well-separated 16 x 16 blade, accepts ~1 draw in 3000.
MAX_DRAWS = 100_000


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_matrix(rng: np.random.Generator, field: Field, rows: int, cols: int) -> np.ndarray:
    m = rng.standard_normal((rows, cols))
    if field is Field.COMPLEX:
        m = m + 1j * rng.standard_normal((rows, cols))
    return m.astype(field.dtype)


def random_unitary(rng: np.random.Generator, field: Field, n: int) -> np.ndarray:
    """Haar-ish random orthogonal/unitary matrix (QR with phase fix)."""
    q, r = np.linalg.qr(random_matrix(rng, field, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_subspace(rng: np.random.Generator, field: Field, n: int, dim: int) -> Subspace:
    if not 0 <= dim <= n:
        raise DomainError(f"cannot fit a {dim}-dimensional subspace in dimension {n}")
    if dim == 0:
        return Subspace.zero(n, field)
    return Subspace(random_unitary(rng, field, n)[:, :dim], field, _validate=False)


def random_subspace_within(rng: np.random.Generator, parent: Subspace, dim: int) -> Subspace:
    """Random dim-dimensional subspace of ``parent``."""
    if not 0 <= dim <= parent.dim:
        raise DomainError(f"cannot fit dimension {dim} inside a {parent.dim}-dimensional space")
    if dim == 0:
        return Subspace.zero(parent.ambient_dim, parent.field)
    coeffs = random_unitary(rng, parent.field, parent.dim)[:, :dim]
    return Subspace(parent.onb @ coeffs, parent.field, _validate=False)


def random_partition(rng: np.random.Generator, field: Field, n: int, dims) -> Partition:
    """Orthogonal partition of the full n-dimensional space with the given
    part dimensions (zeros allowed); the dims must sum to n."""
    return split_subspace(rng, Subspace.full(n, field), dims)


def split_subspace(rng: np.random.Generator, parent: Subspace, dims) -> Partition:
    """Orthogonal partition of ``parent`` into parts of the given dimensions."""
    dims = [int(d) for d in dims]
    if any(d < 0 for d in dims) or sum(dims) != parent.dim:
        raise DomainError(f"part dimensions {dims} do not partition a {parent.dim}-dimensional space")
    mixed = parent.onb @ random_unitary(rng, parent.field, parent.dim) if parent.dim else parent.onb
    parts, start = [], 0
    for d in dims:
        parts.append(Subspace(mixed[:, start : start + d], parent.field, _validate=False))
        start += d
    return Partition(tuple(parts))


def random_orthogonal_basis(rng: np.random.Generator, field: Field, n: int) -> np.ndarray:
    """Columns form an orthogonal, deliberately not normalized, basis of the full space."""
    return random_unitary(rng, field, n) * rng.uniform(0.5, 2.0, size=n)


def random_blade(rng: np.random.Generator, field: Field, n: int, grade: int) -> Blade:
    """Random nonzero blade with well-separated factors."""
    if not 1 <= grade <= n:
        raise DomainError(f"cannot build a grade-{grade} blade in dimension {n}")
    for _ in range(MAX_DRAWS):
        factors = random_matrix(rng, field, n, grade)
        s = np.linalg.svd(factors, compute_uv=False)
        if s[-1] > 0.1 * s[0]:
            break
    else:
        raise DomainError(f"no well-separated grade-{grade} factors in {MAX_DRAWS} draws")
    factors = factors * rng.uniform(0.5, 2.0, size=grade)
    coefficient = 1.0
    if field is Field.COMPLEX:
        coefficient = np.exp(2j * np.pi * rng.uniform())
    elif rng.uniform() < 0.5:
        coefficient = -1.0
    return Blade(factors, field=field, coefficient=coefficient)


def random_mixing(rng: np.random.Generator, field: Field, dim: int, cond_limit: float = 100.0) -> np.ndarray:
    """Random well-conditioned square matrix (for turning orthonormal bases
    into generic raw bases without tripping degeneracy checks)."""
    for _ in range(MAX_DRAWS):
        m = random_matrix(rng, field, dim, dim)
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > 0.0 and s[0] / s[-1] <= cond_limit:
            return m
    raise DomainError(f"no {dim} x {dim} draw had condition number <= {cond_limit} in {MAX_DRAWS} draws")


def random_instance(field: Field, n: int, dims, seed) -> list[Subspace]:
    """Independent generic subspaces of the given dimensions, reproducible
    from the seed."""
    rng = rng_from_seed(seed)
    dims = [int(d) for d in dims]
    if any(not 0 <= d <= n for d in dims):
        raise DomainError(f"dimensions {dims} are infeasible in ambient dimension {n}")
    return [random_subspace(rng, field, n, d) for d in dims]
