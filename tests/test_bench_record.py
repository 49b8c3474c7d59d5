"""Schema of the committed ``BENCH_*.json`` records written by
``bench/record.py``, including the optional ``startup`` section; the numbers
themselves are not checked."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ROW_KEYS = {"call", "field", "n", "k", "parent_us", "change_us"}
KERNEL_KEYS = ROW_KEYS | {
    f"{side}_{residual}" for side in ("parent", "change") for residual in ("orthonormality", "span_error")
}
# rows of the angle routes carry their distance to the perfbench oracle instead,
# and rows of the blade calls and raw-basis routes their distance to the exact
# oracle of tests/exact.py
ROUTE_CALLS = {"oriented_grassmann_cos", "grassmann_angle", "grassmann_angle_principal", "complementary_angle"}
ROUTE_CALLS |= {"blade_norm", "blade_inner", "contract", "Contraction.norm", "Contraction.inner_with"}
ROUTE_CALLS |= {"grassmann_angle_equal_dim", "grassmann_angle_any_dim", "complementary_angle_formula", "vector_angle"}
ROUTE_KEYS = ROW_KEYS | {f"{side}_oracle_error" for side in ("parent", "change")}
# rows of the Haar draws, and of one run_suite trial per suite over both fields, count
# the seeds whose output differs from the parent's by a bit instead
SAMPLING_CALLS = {"random_subspace", "haar_pair"}
SAMPLING_KEYS = ROW_KEYS | {f"{side}_mismatches" for side in ("parent", "parent_again", "change")}
SUITE_KEYS = SAMPLING_KEYS - {"n", "k"} | {"suite", "trials"}
# rows of the bundled worked examples, with the documents loaded again before each call or once
GALLERY_KEYS = SAMPLING_KEYS - {"field", "n", "k"} | {"cache"}
# rows of one load of each bundled document
DOCUMENT_KEYS = SAMPLING_KEYS - {"field", "n", "k"} | {"document"}


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert {"machine", "kernels", "perfbench"} <= set(record)
    rows = record["kernels"]["rows"]
    assert rows
    for row in rows:
        if row["call"] == "run_suite":
            assert SUITE_KEYS <= set(row) and row["field"] == "both" and row["trials"] == 1
            keys = SUITE_KEYS - {"suite", "trials"}
        elif row["call"] == "run_gallery":
            assert GALLERY_KEYS <= set(row) and row["cache"] in {"cold", "warm"}
            keys = GALLERY_KEYS - {"cache"}
        elif row["call"] == "load_document":
            assert DOCUMENT_KEYS <= set(row) and row["document"].endswith(".json")
            keys = DOCUMENT_KEYS - {"document"}
        else:
            keys = ROUTE_KEYS if row["call"] in ROUTE_CALLS else SAMPLING_KEYS if row["call"] in SAMPLING_CALLS else KERNEL_KEYS
            assert keys <= set(row)
            assert row["call"] in {"orthonormalize", "from_spanning"} | ROUTE_CALLS | SAMPLING_CALLS
            assert row["field"] in {"real", "complex"}
            assert 1 <= row["k"] <= row["n"]
        assert all(isinstance(row[key], float) and row[key] >= 0.0 for key in keys - {"call", "field", "n", "k"})
        for side in ("parent", "parent_again", "change"):
            if f"{side}_median_us" in row:
                assert row[f"{side}_us"] <= row[f"{side}_median_us"]
        if row["call"] == "orthonormalize":
            assert {"gram_schmidt_us", "householder_us"} <= set(row)
    end_to_end = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert record["perfbench"]
    for workload in record["perfbench"].values():
        runs = workload["runs"]
        assert len(runs["parent"]) == len(runs["change"]) == workload["pairs"]
        for run in runs["parent"] + runs["change"]:
            assert set(run["metrics"]) >= set(end_to_end)
        for name in end_to_end:
            summary = workload["summary"][name]
            for side in ("parent", "change"):
                assert summary[side]["q1"] <= summary[side]["median"] <= summary[side]["q3"]
            assert summary["change_wins"] + summary["parent_wins"] <= workload["pairs"]
    for row in record.get("startup", {"rows": []})["rows"]:
        assert row["bytecode"] in {"as-is", "cached"}
        assert row["command"] in {"import", "angle", "principal", "examples", "verify"}
        for key in (f"{side}_{value}" for side in ("parent", "change") for value in ("s", "iqr_s", "raw_s")):
            assert isinstance(row[key], float) and row[key] >= 0.0
        assert row["change_wins"] + row["parent_wins"] <= row["runs"]
