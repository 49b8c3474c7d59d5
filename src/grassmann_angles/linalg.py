"""Field-generic dense linear algebra kernels.

Matrices are plain 2-D numpy arrays (float64 or complex128, row-major).
``det`` and ``svd`` wrap one LAPACK call each on a single matrix; the modules
above also call ``np.linalg`` directly, for stacked determinants, singular
values alone, full SVDs, solves, norms and QR.  The Laplace-expansion
determinant is deliberately *not* LAPACK-backed: it is the independent
oracle the fast path is tested against, so it only uses naive cofactor
recursion.  Orthonormal bases are chosen by column count: fewer
than ``QR_MIN_COLUMNS`` columns go through block classical Gram-Schmidt with
two passes, two matrix-vector products per pass; wider bases through one
Householder QR.  ``np.linalg.qr`` has a fixed cost of 15-20 us per call, more
than the whole loop on one to three columns, while the loop's cost grows by
about a dozen numpy calls per column.

Extreme scales are handled by exact powers of two: ``scale_columns``
multiplies each column whose largest entry lies outside 2^(+-500) in modulus
by its own power of two, so that no norm over- or underflows, and leaves
every other column as it is, so results on ordinary input keep every bit.
The rule for the Gram determinants of raw bases sits with its one caller,
``angles._basis_matrix``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DimensionMismatchError, DomainError, MultiIndexError, SingularPivotError
from .fields import DEFAULT_TOLERANCE, Tolerance, _is_integer

# Naive cofactor recursion is O(n!); anything bigger than this is a mistake.
_COFACTOR_LIMIT = 10

# A column whose largest entry lies inside 2^(+-500) in modulus has a norm
# from squares that neither overflow nor underflow, for fewer than 2^22 entries.
_SCALE_EXPONENT_LIMIT = 500

# Bases of at least this many columns are orthonormalized by one Householder
# QR, narrower ones by the Gram-Schmidt loop (the crossover measured per shape
# in BENCH_6.json).
QR_MIN_COLUMNS = 4


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix of inner products ``<x_i, y_j>`` of the columns of x and y.

    Conjugate-linear in the first argument, so this is ``x* y``.
    """
    return x.conj().T @ y


def det(m) -> complex | float:
    """Determinant via pivoted LU (the fast path).

    Raises DimensionMismatchError for non-square input.  The 0x0 determinant
    is 1 (empty product), as numpy gives it.
    """
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"determinant needs a square matrix, got {arr.shape}")
    value = np.linalg.det(arr)
    return complex(value) if np.iscomplexobj(arr) else float(value)


def _cofactor_det(m: np.ndarray) -> complex | float:
    # first-row cofactor expansion; independent of LAPACK by design
    n = m.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return m[0, 0]
    if n == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    total = 0.0
    cols = np.arange(n)
    for j in range(n):
        minor = m[1:][:, cols != j]
        total += (-1) ** j * m[0, j] * _cofactor_det(minor)
    return total


def _validate_multi_index(cols, q: int) -> tuple[int, ...]:
    idx = tuple(cols)
    if not all(map(_is_integer, (q, *idx))):  # 1.7 or True is not 1
        raise MultiIndexError(f"indices {idx} and size {q} must be integers")
    idx = tuple(map(int, idx))
    if idx and (min(idx) < 1 or max(idx) > q):
        raise MultiIndexError(f"indices {idx} out of range [1, {q}]")
    if not all(map(operator.lt, idx, idx[1:])):
        raise MultiIndexError(f"indices {idx} are not strictly increasing")
    return idx


def laplace_expand_det(m, cols) -> complex | float:
    """Determinant by Laplace expansion along the column set ``cols``.

    ``cols`` is a strictly increasing sequence of 1-based column indices with
    ``1 <= len(cols) < q``.  The expansion sums, over all row sets I of the
    same size, ``(-1)^(|I|+|J|) det(M[I, J]) det(M[^I, ^J])`` with the
    complementary minors.  Sub-determinants use cofactor recursion, keeping
    this routine an oracle that shares no code with :func:`det`.
    """
    from itertools import combinations

    arr = as_matrix(m)
    q = arr.shape[0]
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"Laplace expansion needs a square matrix, got {arr.shape}")
    if q > _COFACTOR_LIMIT:
        raise DomainError(f"Laplace oracle is capped at {_COFACTOR_LIMIT}x{_COFACTOR_LIMIT}")
    j_idx = _validate_multi_index(cols, q)
    p = len(j_idx)
    if not 1 <= p < q:
        raise MultiIndexError(f"column set must satisfy 1 <= p < q, got p={p}, q={q}")

    j0 = [j - 1 for j in j_idx]
    j0_hat = [j for j in range(q) if j not in set(j0)]
    sign_j = sum(j_idx)
    total = 0.0
    for rows in combinations(range(1, q + 1), p):
        i0 = [i - 1 for i in rows]
        i0_hat = [i for i in range(q) if i not in set(i0)]
        sign = (-1) ** (sum(rows) + sign_j)
        total += sign * _cofactor_det(arr[np.ix_(i0, j0)]) * _cofactor_det(arr[np.ix_(i0_hat, j0_hat)])
    return complex(total) if np.iscomplexobj(arr) else float(total)


def schur_det(a, b, c, d, pivot: str = "A", tol: Tolerance = DEFAULT_TOLERANCE) -> complex | float:
    """Determinant of the block matrix [[A, B], [C, D]] via a Schur complement.

    ``pivot="A"`` evaluates det(A) * det(D - C A^-1 B); ``pivot="D"``
    evaluates det(D) * det(A - B D^-1 C).  The pivot block must be square and
    invertible (smallest singular value above rank_eps times the largest),
    otherwise SingularPivotError is raised and the caller should fall back to
    a direct determinant of the assembled matrix.
    """
    a, b, c, d = (as_matrix(x) for x in (a, b, c, d))
    qq, pp = a.shape[0], d.shape[0]
    if a.shape != (qq, qq) or d.shape != (pp, pp):
        raise DimensionMismatchError("diagonal blocks A and D must be square")
    if b.shape != (qq, pp) or c.shape != (pp, qq):
        raise DimensionMismatchError(
            f"off-diagonal blocks must be {qq}x{pp} and {pp}x{qq}, got {b.shape} and {c.shape}"
        )
    if pivot not in ("A", "D"):
        raise DomainError(f"pivot must be 'A' or 'D', got {pivot!r}")

    block = a if pivot == "A" else d
    if block.shape[0] > 0:
        s = np.linalg.svd(block, compute_uv=False)
        if s[0] == 0.0 or s[-1] <= tol.rank_eps * s[0]:
            raise SingularPivotError(f"pivot block {pivot} is numerically singular")
    if pivot == "A":
        complement = d - c @ np.linalg.solve(a, b) if qq else d
    else:
        complement = a - b @ np.linalg.solve(d, c) if pp else a
    return det(block) * det(complement)


def _column_exponents(x: np.ndarray) -> np.ndarray:
    """Per column of x (axis -2), the exponent s for which 2^s puts the
    largest real or imaginary part in [0.5, 1); capped at 1023, so that 2^s
    is finite (a subnormal column ends at 2^-51 and up), and 0 for a zero
    column.  Raises DomainError on an entry that is not finite."""
    if not np.isfinite(x).all():
        raise DomainError("entries must be finite (no NaN or infinity)")
    return np.minimum(-np.frexp(np.maximum(abs(x.real), abs(x.imag)).max(axis=-2, initial=0.0))[1], 1023)


def scale_columns(x: np.ndarray) -> np.ndarray:
    """The columns of x, each one whose largest entry lies outside
    2^(+-500) in modulus (zero or not finite included) multiplied by its
    power of two from ``_column_exponents``; exact, so scale-invariant results
    keep every bit.  x itself when no column lies outside.  Raises
    DomainError on an entry that is not finite."""
    low, high = 2.0**-_SCALE_EXPONENT_LIMIT, 2.0**_SCALE_EXPONENT_LIMIT
    # a complex modulus that overflows is inf, without a warning
    outside = [not low <= m <= high for m in abs(x).max(axis=0, initial=0.0).tolist()]
    if not any(outside):
        return x
    return x * np.where(outside, np.ldexp(1.0, _column_exponents(x)), 1.0)


def orthonormalize(columns, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the column space.

    Returns ``(q, rank)`` where q has ``rank`` orthonormal columns and column
    i of q lies in the span of the first i independent input columns, with a
    positive real inner product with its input column.  A column whose
    residual against the columns kept before it drops below ``rank_eps``
    times its original norm is dropped as dependent.  Columns go through
    ``scale_columns`` first, so no norm over- or underflows; a non-finite
    entry in any column raises DomainError.

    Bases of fewer than ``QR_MIN_COLUMNS`` columns go through block classical
    Gram-Schmidt with two passes ("twice is enough": Giraud, Langou &
    Rozloznik 2005), which keeps ``q* q`` within ~1e-15 of the identity.
    Wider ones go through one Householder QR (one more per dependent column),
    whose fixed cost the loop only undercuts on one to three columns.
    """
    arr = as_matrix(columns)
    arr = scale_columns(arr.astype(np.promote_types(arr.dtype, np.float64), copy=False))
    if arr.shape[1] >= QR_MIN_COLUMNS:
        return _householder(arr, tol)
    n, k = arr.shape
    q = np.empty((n, min(n, k)), dtype=arr.dtype)
    rank = 0
    for j in range(k):
        if rank == n:
            break  # the span is full
        v = arr[:, j]
        norm = original = math.sqrt(np.vdot(v, v).real)
        if rank:
            kept = q[:, :rank]
            for _ in range(2):
                v = v - kept.dot(v.conj().dot(kept).conj())  # Q (Q* v), as (v* Q)* saves a conjugate of Q
            norm = math.sqrt(np.vdot(v, v).real)
        if norm > tol.rank_eps * original and norm > 0.0:
            q[:, rank] = v / norm
            rank += 1
    return q[:, :rank], rank


def _householder(arr: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, int]:
    """``orthonormalize`` of columns already scaled by Householder QR:
    |r_jj| is the residual of column j against the columns before it, so
    the loop's rank rule reads off the diagonal of R."""
    norms = np.hypot.reduce(abs(arr) if arr.dtype.kind == "c" else arr, axis=0)
    while True:
        q, r = np.linalg.qr(arr)
        d = r.diagonal()
        size = np.abs(d)
        independent = size > tol.rank_eps * norms[: d.size]
        if independent.all():
            break
        # the diagonals after a dependent column were taken against its noise
        # direction, so the columns are factored again without it
        j = int(independent.argmin())
        arr, norms = np.delete(arr, j, axis=1), np.delete(norms, j)
    q = q * (d / size)  # R with a real positive diagonal, so the columns stay nested
    # renormalized by sums of squares, which round closer than hypot's chain
    squares = q.real * q.real + q.imag * q.imag if q.dtype.kind == "c" else q * q
    return q / np.sqrt(squares.sum(axis=0)), d.size


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``m = u @ diag(s) @ v*`` with s sorted descending.

    Works over both fields; u and v have orthonormal columns.  An m x n
    matrix with m or n zero gives numpy's empty factors u (m, 0), s (0,) and
    v (n, 0).
    """
    u, s, vh = np.linalg.svd(as_matrix(m), full_matrices=False)
    return u, s, vh.conj().T
