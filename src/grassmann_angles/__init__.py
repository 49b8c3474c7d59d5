"""Grassmann angles between real and complex subspaces.

The Grassmann angle of V with W measures how volumes in V contract under
orthogonal projection onto W.  This package computes it (and its
complementary and oriented variants) by the projection definition, by
determinant formulas in arbitrary bases, and by principal-angle products,
and ships randomized checkers for the Pythagorean-style identities these
angles satisfy.

Importing the package loads only the modules the angle routes run on:
``errors``, ``fields``, ``linalg``, ``subspaces`` and ``angles``.  The names
it exports from ``exterior`` (blades) and ``identities`` (the checkers and
``run_suite``) load their module on first access, through the module
``__getattr__`` below, and are looked up there again on every access.
"""

import importlib
import sys

from .angles import (
    AngleMethod,
    AngleReport,
    VectorAngles,
    complementary_angle,
    complementary_angle_formula,
    complementary_angle_orthonormal,
    grassmann_angle,
    grassmann_angle_any_dim,
    grassmann_angle_equal_dim,
    grassmann_angle_principal,
    oriented_grassmann_cos,
    vector_angle,
)
from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    DocumentError,
    DomainError,
    GrassmannError,
    MultiIndexError,
    NumericalConsistencyError,
    SingularPivotError,
)
from .fields import DEFAULT_TOLERANCE, SUITE_NAMES, Field, Tolerance
from .linalg import det, laplace_expand_det, orthonormalize, schur_det, svd
from .subspaces import (
    Partition,
    PrincipalDecomposition,
    Subspace,
    complement,
    direct_sum,
    is_partially_orthogonal,
    is_principal_partition,
    is_principal_subspace,
    orthogonal_complement_within,
    principal_decomposition,
    project,
    project_blade,
    project_subspace,
)

__version__ = "0.1.0"

# exported name -> the module that defines it, imported on first access
_LAZY = dict.fromkeys(
    (
        "Blade",
        "Contraction",
        "CoordinateBladeSet",
        "MultiIndex",
        "blade_inner",
        "blade_norm",
        "contract",
        "coordinate_blades",
        "multi_indices",
        "sigma_sign",
        "wedge",
    ),
    f"{__name__}.exterior",
) | dict.fromkeys(
    (
        "IdentityCheck",
        "check_binomial_identities",
        "check_coordinate_pythagorean",
        "check_direct_sum",
        "check_line_partition",
        "check_oriented_sum",
        "check_partition_chain",
        "check_partition_converse",
        "check_weighted_average",
        "random_instance",
        "run_suite",
    ),
    f"{__name__}.identities",
)


def __getattr__(name: str):
    # Not cached in this namespace: every access reads the defining module's
    # current binding, so a name rebound there (wrapped for tracing, then
    # restored) is never left stale here.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(module) or importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AngleMethod",
    "AngleReport",
    "DEFAULT_TOLERANCE",
    "DegenerateBasisError",
    "DimensionMismatchError",
    "DocumentError",
    "DomainError",
    "Field",
    "GrassmannError",
    "MultiIndexError",
    "NumericalConsistencyError",
    "Partition",
    "PrincipalDecomposition",
    "SUITE_NAMES",
    "SingularPivotError",
    "Subspace",
    "Tolerance",
    "VectorAngles",
    "complement",
    "complementary_angle",
    "complementary_angle_formula",
    "complementary_angle_orthonormal",
    "det",
    "direct_sum",
    "grassmann_angle",
    "grassmann_angle_any_dim",
    "grassmann_angle_equal_dim",
    "grassmann_angle_principal",
    "is_partially_orthogonal",
    "is_principal_partition",
    "is_principal_subspace",
    "laplace_expand_det",
    "oriented_grassmann_cos",
    "orthogonal_complement_within",
    "orthonormalize",
    "principal_decomposition",
    "project",
    "project_blade",
    "project_subspace",
    "schur_det",
    "svd",
    "vector_angle",
    *_LAZY,
]
