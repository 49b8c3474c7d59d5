import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grassmann_angles import Subspace, angles, documents
from grassmann_angles.cli import main
from grassmann_angles.gallery import CASE_IDS, load_case_document, run_gallery

COS_THIRD = math.sqrt(3.0) / 3.0

# (id, title, [(label, expected), ...]) of every bundled case: the CLI's
# --only ids and the examples report are a stable contract
TABLE = [
    ("3.2", "complex planes sharing a line: determinant formula vs Hermitian angle", [
        ("cos of the plane pair via the equal-dimension determinant formula", COS_THIRD),
        ("cos via the Hermitian angle of the transversal lines", COS_THIRD),
    ]),
    ("3.5", "line against a plane in dimension 4, both orders", [
        ("line-to-plane angle in degrees", 45.0),
        ("plane-to-line angle in degrees (forced by dimensions)", 90.0),
    ]),
    ("3.8", "complementary angles of the line/plane pair, three routes", [
        ("complementary angle via the Schur formula, line first", 45.0),
        ("complementary angle via the Schur formula, plane first", 45.0),
        ("complementary angle via det(1 - P P*)", 45.0),
        ("cos of the smaller principal angle, plane vs line-complement", 1.0),
        ("cos of the larger principal angle, plane vs line-complement", math.sqrt(0.5)),
    ]),
    ("3.9", "complementary angle of intersecting complex planes", [
        ("squared cos of the complementary angle via the Schur formula", 0.0),
        ("squared cos of the complementary angle via det(1 - P P*)", 0.0),
    ]),
    ("4.2", "direction cosines of a line against the axes", [
        ("sum of squared direction cosines against the axes", 1.0),
    ]),
    ("4.6", "complex plane against the coordinate planes of a unitary basis", [
        ("cos against coordinate plane 1 of the unitary basis", COS_THIRD),
        ("cos against coordinate plane 2 of the unitary basis", COS_THIRD),
        ("cos against coordinate plane 3 of the unitary basis", COS_THIRD),
        ("sum of the squared cosines", 1.0),
    ]),
    ("4.8", "line against the coordinate planes", [
        ("sum of squared cosines against the coordinate planes", 2.0),
    ]),
    ("4.9", "plane against the axes", [
        ("sum of squared cosines of the axes against the plane", 2.0),
    ]),
]


def test_case_table_is_stable():
    results = run_gallery()
    assert CASE_IDS == tuple(case_id for case_id, _, _ in TABLE)
    got = [(r.case_id, r.title, [(c.label, c.expected) for c in r.checks]) for r in results]
    assert got == TABLE


def test_every_case_passes_with_floats():
    for result in run_gallery():
        assert result.passed(), result.to_dict()
        assert all(type(c.computed) is float for c in result.checks)


def test_case_documents_are_parsed_once():
    first = load_case_document("line_r3.json")
    assert load_case_document("line_r3.json") is first
    assert load_case_document("plane_r3.json") is not first


@pytest.mark.parametrize("name", ["complex_planes.json", "line_plane_r4.json", "line_r3.json", "plane_r3.json"])
def test_case_document_arrays_are_read_only(name):
    doc = load_case_document(name)
    for basis in doc.subspaces.values():
        with pytest.raises(ValueError):
            basis[0, 0] = 7.0
    with pytest.raises(TypeError):
        doc.subspaces["V"] = np.eye(doc.ambient)
    assert not any(np.any(basis == 7.0) for basis in doc.subspaces.values())


def test_each_named_subspace_is_orthonormalized_once(monkeypatch):
    spanning = Subspace.from_spanning.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return spanning(cls, *args, **kwargs)

    monkeypatch.setattr(Subspace, "from_spanning", classmethod(counted))
    load_case_document.cache_clear()
    first = [r.to_dict() for r in run_gallery()]
    assert len(calls) == 6  # 8 subspace calls on 6 distinct (document, name) pairs
    assert [r.to_dict() for r in run_gallery()] == first
    assert len(calls) == 6


def test_the_gallery_checks_no_basis(monkeypatch):
    basis_matrix = angles._basis_matrix
    checked = []

    def counted(mat):
        checked.append(mat)
        return basis_matrix(mat)

    # the check wherever the gallery could reach it: through angles, or through documents if it imports it
    monkeypatch.setattr(angles, "_basis_matrix", counted)
    monkeypatch.setattr(documents, "_basis_matrix", counted, raising=False)
    load_case_document.cache_clear()
    cold = [r.to_dict() for r in run_gallery()]
    assert checked == []
    assert [r.to_dict() for r in run_gallery()] == cold
    assert checked == []


def test_repeated_examples_print_the_same_bytes(capsys):
    outputs = []
    for _ in range(2):
        assert main(["examples", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


SRC = Path(__file__).resolve().parent.parent / "src"
# the package under SRC imported as ``ga_alias``, where no ``grassmann_angles`` can be imported
ALIASED_GALLERY = """
import importlib.util, sys
from pathlib import Path
assert importlib.util.find_spec("grassmann_angles") is None
init = Path(sys.argv[1]) / "grassmann_angles" / "__init__.py"
spec = importlib.util.spec_from_file_location("ga_alias", init, submodule_search_locations=[str(init.parent)])
sys.modules["ga_alias"] = module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
from ga_alias.gallery import run_gallery
results = run_gallery()
assert results and all(r.passed() for r in results) and "grassmann_angles" not in sys.modules
print(len(results))
"""


def test_the_gallery_reads_its_own_package_under_another_name(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", ALIASED_GALLERY, str(SRC)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == len(CASE_IDS)
