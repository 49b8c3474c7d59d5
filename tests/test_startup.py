"""Which package modules each command loads, checked in fresh processes.

Importing the package loads only the modules the angle routes run on; the
blade, identity, sampling and gallery modules load when a command or a name
needs them.  No timing is checked here.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import grassmann_angles
from grassmann_angles import cli, identities

SRC = str(Path(grassmann_angles.__file__).resolve().parent.parent)
DATA = resources.files("grassmann_angles").joinpath("data")
DEFERRED = ("identities", "sampling", "gallery", "exterior")

# Runs `python -m grassmann_angles ARGV` (or only imports the package when
# ARGV is null) with stdout captured, fails unless it exits 0, then prints the
# loaded package modules.
PROBE = """
import contextlib, io, json, runpy, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import grassmann_angles
else:
    sys.argv = ["grassmann_angles", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("grassmann_angles", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            if exc.code:
                raise
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("grassmann_angles."))))
"""

# Every name the package exported before its exports of `exterior` and
# `identities` became lazy.
EXPORTS = (
    "AngleMethod AngleReport VectorAngles complementary_angle complementary_angle_formula "
    "complementary_angle_orthonormal grassmann_angle grassmann_angle_any_dim grassmann_angle_equal_dim "
    "grassmann_angle_principal oriented_grassmann_cos vector_angle "
    "DegenerateBasisError DimensionMismatchError DocumentError DomainError GrassmannError MultiIndexError "
    "NumericalConsistencyError SingularPivotError "
    "Blade Contraction CoordinateBladeSet MultiIndex blade_inner blade_norm contract coordinate_blades "
    "multi_indices sigma_sign wedge "
    "DEFAULT_TOLERANCE Field Tolerance "
    "SUITE_NAMES IdentityCheck check_binomial_identities check_coordinate_pythagorean check_direct_sum "
    "check_line_partition check_oriented_sum check_partition_chain check_partition_converse "
    "check_weighted_average random_instance run_suite "
    "det laplace_expand_det orthonormalize schur_det svd "
    "Partition PrincipalDecomposition Subspace complement direct_sum is_partially_orthogonal "
    "is_principal_partition is_principal_subspace orthogonal_complement_within principal_decomposition "
    "project project_blade project_subspace"
).split()


def loaded_modules(argv) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out))


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["angle", str(DATA / "line_plane_r4.json"), "V", "W", "--json"],
        ["principal", str(DATA / "complex_planes.json"), "V", "W", "--json"],
    ],
    ids=["import", "angle", "principal"],
)
def test_the_angle_commands_load_no_blade_identity_or_gallery_module(argv):
    modules = loaded_modules(argv)
    assert {"angles", "subspaces", "linalg"} <= modules
    assert modules.isdisjoint(DEFERRED)


def test_examples_loads_the_gallery_but_no_blade_or_identity_module():
    modules = loaded_modules(["examples", "--json"])
    assert "gallery" in modules
    assert modules.isdisjoint({"identities", "sampling", "exterior"})


def test_the_oriented_and_verify_commands_load_what_they_use():
    oriented = loaded_modules(["angle", str(DATA / "complex_planes.json"), "V", "W", "--oriented", "--json"])
    assert "exterior" in oriented and oriented.isdisjoint({"identities", "sampling", "gallery"})
    assert {"identities", "sampling", "exterior"} <= loaded_modules(["verify", "--suite", "binomial", "--trials", "1"])


def test_every_exported_name_resolves_and_is_listed():
    assert len(EXPORTS) == len(set(EXPORTS))
    listed = dir(grassmann_angles)
    for name in EXPORTS:
        assert getattr(grassmann_angles, name) is not None
        assert name in grassmann_angles.__all__ and name in listed
    assert set(grassmann_angles.__all__) == set(EXPORTS)


def test_lazy_names_are_read_from_their_module_on_every_access():
    assert grassmann_angles.Blade is grassmann_angles.exterior.Blade
    assert grassmann_angles.run_suite is identities.run_suite
    assert "Blade" not in vars(grassmann_angles) and "run_suite" not in vars(grassmann_angles)
    assert grassmann_angles.SUITE_NAMES is identities.SUITE_NAMES
    with pytest.raises(AttributeError):
        grassmann_angles.no_such_name  # noqa: B018


def test_the_cli_module_still_names_run_suite():
    assert cli.run_suite is identities.run_suite
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018
