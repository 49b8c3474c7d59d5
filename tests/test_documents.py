import json
from importlib import resources

import numpy as np
import pytest

from grassmann_angles import DocumentError
from grassmann_angles.cli import main
from grassmann_angles.documents import load_document, parse_document
from grassmann_angles.fields import Field


def minimal_doc(**overrides):
    doc = {
        "field": "real",
        "ambient": 3,
        "subspaces": {"V": [[1, 0, 0], [0, 1, 0]], "W": [[0, 0, 1]]},
    }
    doc.update(overrides)
    return doc


class TestParseDocument:
    def test_happy_path(self):
        doc = parse_document(minimal_doc())
        assert doc.field is Field.REAL and doc.ambient == 3
        assert doc.basis("V").shape == (3, 2)
        assert doc.subspace("W").dim == 1

    def test_complex_entries(self):
        doc = parse_document(
            {
                "field": "complex",
                "ambient": 2,
                "subspaces": {"V": [[[0.0, 1.0], 1]]},
            }
        )
        v = doc.basis("V")
        assert v.dtype == np.complex128
        assert v[0, 0] == 1j and v[1, 0] == 1.0

    def test_complex_pairs_rejected_over_reals(self):
        bad = minimal_doc(subspaces={"V": [[[1.0, 2.0], 0, 0]]})
        with pytest.raises(DocumentError):
            parse_document(bad)

    def test_unknown_subspace_lists_known_names(self):
        doc = parse_document(minimal_doc())
        with pytest.raises(DocumentError, match="V, W"):
            doc.basis("nope")

    def test_wrong_vector_length(self):
        with pytest.raises(DocumentError):
            parse_document(minimal_doc(subspaces={"V": [[1, 0]]}))

    def test_bad_field(self):
        with pytest.raises(DocumentError):
            parse_document(minimal_doc(field="quaternionic"))

    def test_bad_ambient(self):
        with pytest.raises(DocumentError):
            parse_document(minimal_doc(ambient=0))

    def test_missing_subspaces(self):
        with pytest.raises(DocumentError):
            parse_document({"field": "real", "ambient": 2, "subspaces": {}})

    @pytest.mark.parametrize("entry", [[True, False], [1.0, True], [False, 0]])
    def test_boolean_parts_of_a_complex_entry_rejected(self, entry):
        bad = {"field": "complex", "ambient": 2, "subspaces": {"V": [[entry, 1]]}}
        with pytest.raises(DocumentError, match="bad vector entry"):
            parse_document(bad)

    @pytest.mark.parametrize("vectors", [[[0, 0, 0]], [[0, 0, 0], [0.0, 0, 0]]])
    def test_a_subspace_that_spans_nothing_is_named(self, vectors):
        doc = parse_document(minimal_doc(subspaces={"Z": vectors, "W": [[0, 0, 1]]}))
        assert doc.basis("Z").shape == (3, len(vectors))
        with pytest.raises(DocumentError, match="'Z'"):
            doc.subspace("Z")

    def test_bad_entry_type(self):
        with pytest.raises(DocumentError):
            parse_document(minimal_doc(subspaces={"V": [["x", 0, 0]]}))

    def test_options_parsed(self):
        doc = parse_document(
            minimal_doc(options={"rank_eps": 1e-9, "residual_eps": 1e-7, "degrees": True})
        )
        assert doc.options.tolerance.rank_eps == 1e-9
        assert doc.options.tolerance.residual_eps == 1e-7
        assert doc.options.degrees is True

    @pytest.mark.parametrize("options", [{"mystery": 1}, {"seed": 0}])
    def test_unknown_option_rejected(self, options):
        # seed was accepted once but never read; it is unknown now
        with pytest.raises(DocumentError, match="unknown options"):
            parse_document(minimal_doc(options=options))

    def test_out_of_range_tolerance_rejected(self):
        with pytest.raises(DocumentError):
            parse_document(minimal_doc(options={"rank_eps": 2.0}))


LINE_DOC = {"field": "real", "ambient": 1, "subspaces": {"V": [[1]], "W": [[2]]}}


class TestFieldTypes:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"ambient": True}, "ambient"),
            ({"options": {"degrees": "false"}}, "degrees"),
            ({"options": {"degrees": 1}}, "degrees"),
            ({"options": {"rank_eps": "1e-3"}}, "rank_eps"),
            ({"options": {"residual_eps": "1e-3"}}, "residual_eps"),
            ({"options": {"rank_eps": True}}, "rank_eps"),
            ({"options": {"residual_eps": True}}, "residual_eps"),
        ],
    )
    def test_wrong_types_rejected(self, overrides, match):
        with pytest.raises(DocumentError, match=match):
            parse_document(LINE_DOC | overrides)

    def test_explicit_false_degrees_kept(self):
        doc = parse_document(minimal_doc(options={"degrees": False}))
        assert doc.options.degrees is False

    def test_bundled_documents_parse(self):
        data = resources.files("grassmann_angles").joinpath("data")
        names = [entry.name for entry in data.iterdir() if entry.name.endswith(".json")]
        assert len(names) == 4
        for name in names:
            parse_document(json.loads(data.joinpath(name).read_text()))

    def test_readme_example_parses(self):
        doc = parse_document(
            {
                "field": "complex",
                "ambient": 3,
                "subspaces": {
                    "V": [[1, [-0.5, -0.866], 0], [0, [-0.5, 0.866], [0.5, 0.866]]],
                    "W": [[1, 0, 0], [0, [-0.5, 0.866], 0]],
                },
                "options": {"degrees": True, "rank_eps": 1e-10, "residual_eps": 1e-8},
            }
        )
        assert doc.options.degrees is True
        assert doc.options.tolerance.rank_eps == 1e-10

    @pytest.mark.parametrize(
        "overrides",
        [{"ambient": True}, {"options": {"degrees": "false"}}, {"options": {"seed": 0}}, {"options": {"rank_eps": "1e-3"}}],
    )
    def test_cli_exits_2(self, tmp_path, capsys, overrides):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(LINE_DOC | overrides))
        assert main(["angle", str(path), "V", "W"]) == 2
        assert "error" in capsys.readouterr().err


class TestLoadDocument:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(minimal_doc()))
        doc = load_document(path)
        assert doc.ambient == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            load_document(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError):
            load_document(path)
