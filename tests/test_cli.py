import json
import math
from importlib import resources

import numpy as np
import pytest

from grassmann_angles import cli
from grassmann_angles.cli import main


def data_path(name):
    return str(resources.files("grassmann_angles").joinpath("data", name))

COMPLEX_DOC = data_path("complex_planes.json")
R4_DOC = data_path("line_plane_r4.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    @pytest.mark.parametrize("command", ["angle", "principal", "verify", "examples"])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_back_to_back_calls_match_fresh_parsers(self, capsys, monkeypatch):
        argvs = [
            ["angle", R4_DOC, "V", "W", "--json"],
            ["angle", COMPLEX_DOC, "V", "W", "--complementary", "--method", "any-dim", "--degrees"],
            ["principal", R4_DOC, "W", "V", "--json"],
            ["verify", "--suite", "binomial", "--field", "real", "--trials", "2", "--n", "4", "--json"],
            ["examples", "--only", "3.5"],
            ["angle", R4_DOC, "W", "V", "--method", "equal-dim"],
        ]
        argvs += argvs[::-1]
        reused = [run_cli(capsys, *argv) for argv in argvs]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
        assert reused == [run_cli(capsys, *argv) for argv in argvs]
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("command", ["angle", "principal"])
    def test_missing_subspace_names_are_usage_errors(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, R4_DOC, "V"])
        assert exc.value.code == 2
        assert "required: W" in capsys.readouterr().err


class TestAngleCommand:
    def test_equal_dim_cos_value(self, capsys):
        code, out, _ = run_cli(capsys, "angle", COMPLEX_DOC, "V", "W", "--method", "equal-dim", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "EqualDimFormula"
        assert payload["cos"] == pytest.approx(0.5773502691896258, abs=1e-12)

    def test_degrees_flag(self, capsys):
        code, out, _ = run_cli(capsys, "angle", R4_DOC, "V", "W", "--method", "any-dim", "--degrees", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value_degrees"] == pytest.approx(45.0, abs=1e-10)

    def test_complementary_on_intersecting_planes(self, capsys):
        code, out, _ = run_cli(
            capsys, "angle", COMPLEX_DOC, "V", "W", "--complementary", "--method", "any-dim", "--degrees", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cos_squared"] <= 1e-12
        assert payload["value_degrees"] == pytest.approx(90.0, abs=1e-5)

    def test_every_method_runs(self, capsys):
        for method in ("projection", "equal-dim", "any-dim", "principal"):
            code, out, _ = run_cli(capsys, "angle", COMPLEX_DOC, "V", "W", "--method", method, "--json")
            assert code == 0
            assert json.loads(out)["cos"] == pytest.approx(0.5773502691896258, abs=1e-8)

    def test_every_method_runs_complementary(self, capsys):
        for method in ("projection", "equal-dim", "any-dim", "principal"):
            code, out, _ = run_cli(
                capsys, "angle", R4_DOC, "V", "W", "--complementary", "--method", method, "--json"
            )
            assert code == 0
            assert json.loads(out)["cos_squared"] == pytest.approx(0.5, abs=1e-10)

    def test_oriented_real(self, capsys, tmp_path):
        doc = {
            "field": "real",
            "ambient": 2,
            "subspaces": {"A": [[1, 0], [0, 1]], "B": [[0, 1], [1, 0]]},
        }
        path = tmp_path / "planes.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "angle", str(path), "A", "B", "--oriented", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cos"] == pytest.approx(-1.0)
        assert payload["value_radians"] == pytest.approx(math.pi)

    def test_oriented_degrees_on_a_real_pair(self, capsys):
        code, out, _ = run_cli(capsys, "angle", R4_DOC, "W", "Wperp", "--oriented", "--degrees", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value_degrees"] == math.degrees(payload["value_radians"]) == 90.0

    def test_oriented_complex_encodes_pair(self, capsys):
        code, out, _ = run_cli(capsys, "angle", COMPLEX_DOC, "V", "W", "--oriented", "--json")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload["cos"], list) and len(payload["cos"]) == 2
        assert "value_radians" not in payload
        modulus = math.hypot(*payload["cos"])
        assert modulus == pytest.approx(0.5773502691896258, abs=1e-10)

    def test_oriented_and_complementary_conflict(self, capsys):
        code, _, err = run_cli(capsys, "angle", COMPLEX_DOC, "V", "W", "--oriented", "--complementary")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("method", ["projection", "equal-dim", "any-dim", "principal"])
    def test_oriented_and_method_conflict(self, capsys, method):
        # the oriented route takes no method, so naming one is an input error
        code, out, err = run_cli(capsys, "angle", COMPLEX_DOC, "V", "W", "--oriented", "--method", method)
        assert code == 2 and "error" in err and out == ""

    def test_tolerance_is_not_an_angle_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["angle", R4_DOC, "V", "W", "--tolerance", "1e-8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance 1e-8" in capsys.readouterr().err

    def test_unknown_subspace_name(self, capsys):
        code, _, err = run_cli(capsys, "angle", COMPLEX_DOC, "V", "Q")
        assert code == 2 and "unknown subspace" in err

    def test_missing_document(self, capsys):
        code, _, err = run_cli(capsys, "angle", "/no/such/file.json", "V", "W")
        assert code == 2 and "cannot read" in err

    def test_degenerate_basis_is_input_error(self, capsys, tmp_path):
        doc = {"field": "real", "ambient": 2, "subspaces": {"V": [[1, 0], [1, 0]], "W": [[0, 1]]}}
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "angle", str(path), "V", "W", "--method", "equal-dim")
        assert code == 2 and "dependent" in err

    @pytest.mark.parametrize("method", ["projection", "any-dim", "principal"])
    def test_nan_entry_is_input_error(self, capsys, tmp_path, method):
        # json.loads accepts NaN; it must not be dropped as a dependent vector
        path = tmp_path / "nan.json"
        path.write_text('{"field": "real", "ambient": 3, "subspaces": {"V": [[NaN, 0, 1]], "W": [[1, 0, 0]]}}')
        code, out, err = run_cli(capsys, "angle", str(path), "V", "W", "--method", method, "--json")
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "flags", [["--method", "projection"], ["--method", "any-dim"], ["--complementary", "--method", "any-dim"]]
    )
    def test_overflowing_entries_are_rescaled(self, capsys, tmp_path, flags):
        doc = {"field": "real", "ambient": 3, "subspaces": {"V": [[1e200, 0, 1e200]], "W": [[1, 0, 0]]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "angle", str(path), "V", "W", *flags, "--json")
        assert code == 0
        assert json.loads(out)["cos"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_bases_with_a_gram_determinant_below_the_floats_run(self, capsys, tmp_path):
        # cond 5e5 each; det G is about 2^-568, so det A det D underflows unless the bases are scaled
        v = np.diag([1.0] + [2e-6] * 15)
        w = np.linalg.qr(np.random.default_rng(16).standard_normal((16, 16)))[0] @ v
        doc = {"field": "real", "ambient": 16, "subspaces": {"V": v.T.tolist(), "W": w.T.tolist()}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "angle", str(path), "V", "W", "--method", "equal-dim", "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["cos"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--complementary"], ["--method", "principal"], ["--oriented"]])
    @pytest.mark.parametrize("order", [("Z", "W"), ("W", "Z")])
    def test_a_subspace_of_zero_vectors_is_input_error(self, capsys, tmp_path, flags, order):
        doc = {"field": "real", "ambient": 3, "subspaces": {"Z": [[0, 0, 0]], "W": [[1, 0, 0]]}}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "angle", str(path), *order, *flags, "--json")
        assert code == 2 and out == "" and "error" in err
        assert run_cli(capsys, "principal", str(path), *order, "--json")[0] == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_oriented_route_rescales_extreme_entries(self, capsys, tmp_path, scale):
        doc = {"field": "real", "ambient": 3, "subspaces": {"V": [[scale, 0, scale]], "W": [[1, 0, 0]]}}
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "angle", str(path), "V", "W", "--oriented", "--json")
        assert code == 0, err
        assert json.loads(out)["cos"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_bit_for_bit_roundtrip(self, capsys):
        _, out1, _ = run_cli(capsys, "angle", COMPLEX_DOC, "V", "W", "--method", "any-dim", "--json")
        _, out2, _ = run_cli(capsys, "angle", COMPLEX_DOC, "V", "W", "--method", "any-dim", "--json")
        assert out1 == out2
        payload = json.loads(out1)
        assert json.loads(json.dumps(payload)) == payload


class TestPrincipalCommand:
    def test_plane_against_line_complement(self, capsys):
        code, out, _ = run_cli(capsys, "principal", R4_DOC, "W", "Vperp", "--degrees", "--json")
        assert code == 0
        payload = json.loads(out)
        # the zero angle carries arccos round-off; its cosine is the sharp value
        np.testing.assert_allclose(payload["angles_degrees"], [0.0, 45.0], atol=1e-5)
        np.testing.assert_allclose(payload["cosines"], [1.0, math.sqrt(0.5)], atol=1e-12)
        assert payload["pairing_residual"] <= 1e-9
        assert len(payload["e_basis"]) == 2 and len(payload["f_basis"]) == 3

    def test_same_subspace_has_zero_angles(self, capsys):
        code, out, _ = run_cli(capsys, "principal", R4_DOC, "W", "W", "--json")
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["angles_radians"], 0.0, atol=1e-6)
        np.testing.assert_allclose(payload["cosines"], 1.0, atol=1e-12)

    def test_eq3_residual_reported_on_random_doc(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        doc = {
            "field": "complex",
            "ambient": 4,
            "subspaces": {
                name: [[[float(rng.standard_normal()), float(rng.standard_normal())] for _ in range(4)] for _ in range(k)]
                for name, k in (("V", 2), ("W", 3))
            },
        }
        path = tmp_path / "random.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "principal", str(path), "V", "W", "--json")
        assert code == 0
        assert json.loads(out)["pairing_residual"] <= 1e-9


class TestVerifyCommand:
    def test_pythagorean_complex(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "pythagorean", "--field", "complex", "--n", "4", "--trials", "100"
        )
        assert code == 0 and "ok" in out

    def test_direct_sum_real(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "direct-sum", "--field", "real", "--trials", "50")
        assert code == 0

    def test_deterministic_json_report(self, capsys):
        args = ("verify", "--suite", "all", "--n", "3", "--trials", "1", "--seed", "7", "--json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert {"name", "residual", "passed", "witness"} <= set(report[0])

    def test_impossible_tolerance_fails_with_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "pythagorean", "--field", "real",
            "--n", "3", "--trials", "2", "--tolerance", "1e-18",
        )
        assert code == 1 and "FAILED" in out

    def test_a_tolerance_outside_the_unit_interval_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", "1", "--tolerance", "2")
        assert code == 2 and out == ""
        assert err == "error: residual_eps must be in (0, 1), got 2.0\n"

    def test_infeasible_parameters(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "9")
        assert code == 2
        code, _, err = run_cli(capsys, "verify", "--trials", "20000")
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_empty_runs_exit_2(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify", "--trials", trials, "--json")
        assert code == 2 and out == ""
        assert err == f"error: trials must be at least 1, got {trials}\n"

    def test_one_dimension_exits_2_for_the_suites_that_need_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "1", "--trials", "1")
        assert code == 2 and out == ""
        assert err == "error: the direct-sum suite needs ambient dimension >= 2\n"

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--trials", "1")
        assert code == 2 and out == ""
        assert err == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_dimension_exits_2(self, capsys, n):
        code, out, err = run_cli(capsys, "verify", "--n", n, "--trials", "2")
        assert code == 2 and out == ""
        assert err == f"error: n_max must be in [1, 16], got {n}\n"


class TestExamplesCommand:
    def test_full_run_has_eight_cases(self, capsys):
        code, out, _ = run_cli(capsys, "examples")
        assert code == 0
        assert out.count("[PASS]") == 8 and "[FAIL]" not in out

    def test_single_selection(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "--only", "3.5")
        assert code == 0
        assert "45" in out and "90" in out

    def test_json_schema_stable(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "--json")
        assert code == 0
        report = json.loads(out)
        assert len(report) == 8
        for case in report:
            assert {"case", "title", "passed", "checks"} <= set(case)
            for check in case["checks"]:
                assert {"label", "expected", "computed", "error", "passed"} <= set(check)
        assert all(case["passed"] for case in report)

    def test_unknown_case_rejected(self, capsys):
        code, _, err = run_cli(capsys, "examples", "--only", "99.9")
        assert code == 2 and "unknown case" in err
