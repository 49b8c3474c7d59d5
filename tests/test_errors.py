"""One exception type per input fault.

A pair of operands from different spaces (mixed scalar fields, or different
ambient dimensions) raises DimensionMismatchError from every pairwise
operation, subspaces, blades and contractions alike; caps, option ranges and
pivots outside their domain raise DomainError.  Both are GrassmannErrors and
ValueErrors.
"""

import numpy as np
import pytest

from grassmann_angles import (
    Blade,
    DimensionMismatchError,
    DomainError,
    GrassmannError,
    Partition,
    Subspace,
    Tolerance,
    blade_inner,
    complementary_angle,
    contract,
    direct_sum,
    grassmann_angle,
    grassmann_angle_any_dim,
    laplace_expand_det,
    oriented_grassmann_cos,
    principal_decomposition,
    project_blade,
    schur_det,
    wedge,
)
from grassmann_angles.fields import Field
from grassmann_angles.identities import check_coordinate_pythagorean, check_line_partition, check_oriented_sum


def blade(field, n):
    return Blade(np.eye(n, 1), field=field)


def subspace(field, n):
    return Subspace.from_spanning(np.eye(n, 1), field)


# Each operation takes the (field, ambient) of its two operands.
PAIRWISE = {
    "wedge": lambda a, b: wedge(blade(*a), blade(*b)),
    "blade_inner": lambda a, b: blade_inner(blade(*a), blade(*b)),
    "contract": lambda a, b: contract(blade(*a), blade(*b)),
    "Contraction.inner_with": lambda a, b: contract(blade(*b), blade(*b)).inner_with(blade(*a)),
    "oriented_grassmann_cos": lambda a, b: oriented_grassmann_cos(blade(*a), blade(*b)),
    "check_oriented_sum": lambda a, b: check_oriented_sum(blade(*a), blade(*b), np.eye(a[1])),
    "project_blade": lambda a, b: project_blade(blade(*a), subspace(*b)),
    "grassmann_angle": lambda a, b: grassmann_angle(subspace(*a), subspace(*b)),
    "complementary_angle": lambda a, b: complementary_angle(subspace(*a), subspace(*b)),
    "principal_decomposition": lambda a, b: principal_decomposition(subspace(*a), subspace(*b)),
    "direct_sum": lambda a, b: direct_sum(subspace(*a), subspace(*b)),
    "check_line_partition": lambda a, b: check_line_partition(subspace(*a), Partition((Subspace.full(b[1], b[0]),))),
}

FAULTS = {
    "mixed-fields": ((Field.REAL, 3), (Field.COMPLEX, 3), "mixed scalar fields: real vs complex"),
    "ambient": ((Field.REAL, 3), (Field.REAL, 4), "ambient dimensions differ: 3 vs 4"),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("operation", PAIRWISE)
def test_operands_from_different_spaces_are_one_fault(operation, fault):
    a, b, message = FAULTS[fault]
    with pytest.raises(DimensionMismatchError, match=message):
        PAIRWISE[operation](a, b)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Blade(np.eye(3, 1), coefficient=1j), DimensionMismatchError, "complex coefficient over the real field"),
        (lambda: laplace_expand_det(np.eye(11), (1,)), DomainError, "Laplace oracle is capped at 10x10"),
        (lambda: schur_det(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), np.eye(1), pivot="B"), DomainError,
         "pivot must be 'A' or 'D', got 'B'"),
        (lambda: Tolerance(rank_eps=1.0), DomainError, r"rank_eps must be in \(0, 1\), got 1.0"),
        (lambda: Tolerance(residual_eps=0.0), DomainError, r"residual_eps must be in \(0, 1\), got 0.0"),
        (lambda: Subspace.from_spanning([np.eye(2)]), DimensionMismatchError, "basis vectors must be 1-D"),
        (lambda: check_coordinate_pythagorean(subspace(Field.REAL, 3), np.eye(2)), DimensionMismatchError,
         r"need 3 basis vectors of dimension 3, got shape \(2, 2\)"),
        (lambda: Blade.scalar(1.0, 2.0, Field.REAL), DomainError,
         "ambient dimension must be a nonnegative integer, got 2.0"),
        (lambda: Blade([], field=Field.REAL, ambient_dim=True), DomainError,
         "ambient dimension must be a nonnegative integer, got True"),
        (lambda: Blade.scalar(1.0, -1, Field.REAL), DomainError,
         "ambient dimension must be a nonnegative integer, got -1"),
        (lambda: Blade([[1.0, 0.0, 0.0]], ambient_dim=5), DimensionMismatchError,
         "basis vectors of dimension 3 in ambient dimension 5"),
    ],
    ids=["complex-coefficient", "laplace-cap", "schur-pivot", "rank-eps", "residual-eps", "2-D-vector",
         "coordinate-basis-shape", "float-ambient", "bool-ambient", "negative-ambient", "ambient-mismatch"],
)
def test_each_fault_has_its_documented_type(build, error, message):
    with pytest.raises(error, match=message) as exc:
        build()
    assert isinstance(exc.value, GrassmannError) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "build",
    [
        lambda v: Subspace.from_spanning(v),
        lambda v: Blade(v),
        lambda v: grassmann_angle_any_dim(v, [[1, 0, 0]]),
    ],
    ids=["from_spanning", "Blade", "grassmann_angle_any_dim"],
)
def test_basis_vectors_of_different_lengths_are_a_dimension_mismatch(build):
    with pytest.raises(DimensionMismatchError, match=r"basis vectors have different lengths: \[2, 3\]"):
        build([[1, 0], [1, 0, 0]])
