import itertools
import json
import re
import sys
import zipfile
from importlib import resources

import numpy as np
import pytest

from grassmann_angles import DegenerateBasisError, DimensionMismatchError, DocumentError, angles
from grassmann_angles.cli import main
from grassmann_angles.documents import decode_entry, load_document, parse_document
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
        for _ in range(2):
            with pytest.raises(DocumentError, match="V, W"):
                doc.subspace("nope")

    def test_each_subspace_is_derived_once_and_shared_read_only(self):
        doc = parse_document(minimal_doc())
        v = doc.subspace("V")
        assert doc.subspace("V") is v and doc.subspace("W") is not v
        with pytest.raises(ValueError):
            v.onb[0, 0] = 7.0
        assert v.onb[0, 0] != 7.0

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
        for _ in range(2):
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

    @pytest.mark.parametrize("obj", [[], "doc", None, 3])
    def test_a_document_that_is_not_an_object_rejected(self, obj):
        with pytest.raises(DocumentError, match="document must be a JSON object"):
            parse_document(obj)


LINE_DOC = {"field": "real", "ambient": 1, "subspaces": {"V": [[1]], "W": [[2]]}}


class TestFieldTypes:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"ambient": True}, "ambient"),
            ({"ambient": 2.0}, "ambient"),
            ({"options": {"degrees": "false"}}, "degrees"),
            ({"options": {"degrees": 1}}, "degrees"),
            ({"options": {"rank_eps": "1e-3"}}, "rank_eps"),
            ({"options": {"residual_eps": "1e-3"}}, "residual_eps"),
            ({"options": {"rank_eps": True}}, "rank_eps"),
            ({"options": {"residual_eps": True}}, "residual_eps"),
            ({"subspaces": {"V": []}}, "subspace 'V' must be a nonempty list of vectors"),
            ({"subspaces": {"V": {"x": [1]}}}, "subspace 'V' must be a nonempty list of vectors"),
            ({"options": [["degrees", True]]}, "'options' must be an object"),
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


def _loaded(tmp_path, obj):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    return load_document(path)


@pytest.mark.parametrize("read", [lambda tmp_path, obj: parse_document(obj), _loaded], ids=["parse", "load"])
def test_documents_are_immutable_values(tmp_path, read):
    doc = read(tmp_path, minimal_doc())
    for basis in doc.subspaces.values():
        with pytest.raises(ValueError):
            basis[0, 0] = 7.0
    with pytest.raises(TypeError):
        doc.subspaces["V"] = np.eye(3)
    with pytest.raises(TypeError):
        del doc.subspaces["W"]
    assert doc.basis("V")[0, 0] == 1.0 and set(doc.subspaces) == {"V", "W"}


class TestLoadDocument:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(minimal_doc()))
        doc = load_document(path)
        assert doc.ambient == 3

    def test_resource_inside_a_zip_archive(self, tmp_path):
        archive = tmp_path / "docs.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("data/doc.json", json.dumps(minimal_doc()))
        with zipfile.ZipFile(archive) as zf:
            doc = load_document(zipfile.Path(zf, "data/doc.json"))
        assert doc.ambient == 3 and doc.basis("V").shape == (3, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            load_document(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError):
            load_document(path)

    def test_an_integer_past_the_digit_limit_is_a_document_error(self, tmp_path, capsys):
        # 5001 digits: past Python's int-string limit where it has one, else past the float range
        path = tmp_path / "long.json"
        path.write_text(json.dumps(minimal_doc()).replace("[[1, 0, 0]", "[[1" + "0" * 5000 + ", 0, 0]", 1))
        with pytest.raises(DocumentError) as info:
            load_document(path)
        assert main(["angle", str(path), "V", "W"]) == 2
        if hasattr(sys, "get_int_max_str_digits"):
            assert str(path) in str(info.value) and str(path) in capsys.readouterr().err

    def test_a_path_that_is_not_a_path_is_a_type_error(self):
        # an int is never opened as a file descriptor
        with pytest.raises(TypeError):
            load_document(3)

    def test_a_utf8_byte_order_mark_is_rejected(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(minimal_doc()).encode())
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_document(path)

    def test_a_document_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = json.dumps(minimal_doc(subspaces={"V\u00e9": [[1, 0, 0]], "W": [[0, 0, 1]]}), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        for as_given in (path, str(path)):
            with pytest.raises(DocumentError, match=re.escape(f"document {path} is not UTF-8")):
                load_document(as_given)
        assert main(["angle", str(path), "W", "W"]) == 2
        assert str(path) in capsys.readouterr().err


BIG = 10**400  # past the largest float


class TestNumbersBeyondTheFloatRange:
    @pytest.mark.parametrize(
        "doc, match",
        [
            (minimal_doc(subspaces={"V": [[1, 0, 0]], "W": [[BIG, 0, 1]]}), "subspace 'W'"),
            (minimal_doc(subspaces={"V": [[1, 0, 0]], "W": [[0, 0, -BIG]]}), "subspace 'W'"),
            ({"field": "complex", "ambient": 2, "subspaces": {"W": [[[BIG, 1], 1]]}}, "subspace 'W'"),
            ({"field": "complex", "ambient": 2, "subspaces": {"W": [[[1, BIG], 1]]}}, "subspace 'W'"),
            ({"field": "complex", "ambient": 2, "subspaces": {"W": [[1, BIG]]}}, "subspace 'W'"),
            (minimal_doc(options={"rank_eps": BIG}), "option rank_eps"),
            (minimal_doc(options={"residual_eps": -BIG}), "option residual_eps"),
        ],
        ids=["entry", "negative-entry", "pair-re", "pair-im", "complex-field-entry", "rank_eps", "residual_eps"],
    )
    def test_rejected_by_name(self, doc, match):
        with pytest.raises(DocumentError, match=f"{match}.* too large for a float"):
            parse_document(doc)

    @pytest.mark.parametrize(
        "text",
        [
            '{"field": "real", "ambient": 2, "subspaces": {"V": [[1, 0]], "W": [[%s, 1]]}}',
            '{"field": "complex", "ambient": 2, "subspaces": {"V": [[1, 0]], "W": [[[%s, 0], 1]]}}',
            '{"field": "real", "ambient": 2, "subspaces": {"V": [[1, 0]], "W": [[0, 1]]}, "options": {"rank_eps": %s}}',
        ],
        ids=["entry", "pair", "rank_eps"],
    )
    @pytest.mark.parametrize("command", ["angle", "principal"])
    def test_cli_exits_2(self, tmp_path, capsys, text, command):
        path = tmp_path / "big.json"
        path.write_text(text % BIG)
        assert main([command, str(path), "V", "W"]) == 2
        assert "too large for a float" in capsys.readouterr().err


def parse_per_entry(obj):
    """The bases of ``obj`` as they were built before the flat decode: one
    ``decode_entry`` call per entry, one list per vector, one array per subspace."""
    field = Field(obj["field"])
    return {
        name: np.array([[decode_entry(x, field) for x in vec] for vec in vectors], dtype=field.dtype).T
        for name, vectors in obj["subspaces"].items()
    }


class IntSubclass(int):
    pass


def random_entry(rng, field):
    kind = rng.integers(8 if field is Field.COMPLEX else 7)
    if kind == 0:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.choice([1, 2**11, 2**40, 2**80])) + int(rng.integers(-3, 4))
    if kind == 1:
        return int(rng.integers(-5, 6))
    if kind == 2:
        return float(rng.choice([-0.0, 0.0, 1e-310, 2.0**53 + 1]))
    if kind == 3:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 4:
        return np.float64(rng.standard_normal())
    if kind == 5:
        return IntSubclass(int(rng.integers(-(2**62), 2**62)) * 2**10)
    if kind == 6:
        return 2**63 + int(rng.integers(-2, 3)) if rng.integers(2) else -(2**64) - 1
    return [random_entry(rng, Field.REAL), random_entry(rng, Field.REAL)]


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=lambda f: f.value)
@pytest.mark.parametrize("seed", range(40))
def test_flat_decode_matches_the_per_entry_decode_bit_for_bit(field, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    obj = {
        "field": field.value,
        "ambient": n,
        "subspaces": {
            name: [[random_entry(rng, field) for _ in range(n)] for _ in range(int(rng.integers(1, 5)))]
            for name in ("V", "W", "U")
        },
    }
    expected = parse_per_entry(obj)
    doc = parse_document(obj)
    assert list(doc.subspaces) == list(expected)
    for name, basis in doc.subspaces.items():
        assert basis.dtype == expected[name].dtype and basis.shape == expected[name].shape
        assert basis.tobytes() == expected[name].tobytes()


class TestMalformedEntries:
    @pytest.mark.parametrize(
        "entry, message",
        [
            (True, "bad vector entry True: expected a number or [re, im]"),
            ("1", "bad vector entry '1': expected a number or [re, im]"),
            (None, "bad vector entry None: expected a number or [re, im]"),
            ([[1, 2], 3], "bad vector entry [[1, 2], 3]: expected a number or [re, im]"),
            ([1, 2, 3], "bad vector entry [1, 2, 3]: expected a number or [re, im]"),
            ([1, True], "bad vector entry [1, True]: expected a number or [re, im]"),
        ],
    )
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_message_unchanged(self, entry, message, field):
        obj = {"field": field, "ambient": 3, "subspaces": {"V": [[1, 0, 0], [0, 1, entry]]}}
        with pytest.raises(DocumentError) as raised:
            parse_document(obj)
        assert str(raised.value) == message

    def test_a_pair_over_the_reals_message_unchanged(self):
        with pytest.raises(DocumentError) as raised:
            parse_document(minimal_doc(subspaces={"V": [[0, 0, 0], [0, [1, 2], 0]]}))
        assert str(raised.value) == "[re, im] entries are only allowed when field is 'complex'"

    def test_errors_are_reported_in_document_order(self):
        # a bad entry before a vector of the wrong length is reported first, and the other way round
        with pytest.raises(DocumentError, match="bad vector entry 'x'"):
            parse_document(minimal_doc(subspaces={"V": [[1, "x", 0], [1, 0]]}))
        with pytest.raises(DocumentError, match="every vector must have length 3"):
            parse_document(minimal_doc(subspaces={"V": [[1, 0], [1, "x", 0]]}))
        with pytest.raises(DocumentError, match="every vector must have length 3"):
            parse_document(minimal_doc(subspaces={"V": [[1, 0, 0], 7]}))


BUNDLED = ["complex_planes.json", "line_plane_r4.json", "line_r3.json", "plane_r3.json"]
# each public raw-basis route and the formula kernel behind it
RAW_ROUTES = [
    (angles.grassmann_angle_equal_dim, angles._equal_dim),
    (angles.grassmann_angle_any_dim, angles._any_dim),
    (angles.complementary_angle_formula, angles._complementary_formula),
]
DEPENDENT_DOC = minimal_doc(subspaces={"V": [[1, 0, 0], [2, 0, 0]], "W": [[0, 1, 0], [0, 0, 1]]})


def bundled(name):
    return load_document(resources.files("grassmann_angles").joinpath("data", name))


def report_bits(report):
    return report.value.hex(), report.cosine.hex(), report.method, report.residual.hex()


class TestCheckedBasis:
    def test_a_dependent_basis_raises_on_every_call_and_is_never_kept(self):
        doc = parse_document(DEPENDENT_DOC)
        for _ in range(2):
            with pytest.raises(DegenerateBasisError, match="linearly dependent"):
                doc._checked_basis("V")
        assert doc._checked == {}

    def test_a_dependent_basis_is_still_an_input_error_of_angle(self, capsys, tmp_path):
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(DEPENDENT_DOC))
        assert main(["angle", str(path), "V", "W", "--method", "any-dim"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: basis vectors are linearly dependent, too ill-conditioned or not finite\n"

    # 1e200 puts the Gram determinant past 2^500, so the check returns a rescaled copy
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_a_checked_matrix_is_shared_and_refuses_writes(self, scale):
        doc = parse_document(minimal_doc(subspaces={"V": [[scale, 0, 0], [0, scale, 0]]}))
        checked = doc._checked_basis("V")
        assert doc._checked_basis("V") is checked
        with pytest.raises(ValueError):
            checked[0, 0] = 7.0

    @pytest.mark.parametrize("name", BUNDLED)
    def test_public_routes_match_their_kernels_on_checked_matrices(self, name):
        doc = bundled(name)
        defined = 0
        for v, w in itertools.product(doc.subspaces, repeat=2):
            for route, kernel in RAW_ROUTES:
                try:
                    public = route(doc.basis(v), doc.basis(w), field=doc.field)
                except DimensionMismatchError:  # the equal-dim formula on bases of different sizes
                    with pytest.raises(DimensionMismatchError):
                        kernel(doc._checked_basis(v), doc._checked_basis(w))
                    continue
                assert report_bits(kernel(doc._checked_basis(v), doc._checked_basis(w))) == report_bits(public)
                defined += 1
        assert defined >= 2 * len(doc.subspaces) ** 2
