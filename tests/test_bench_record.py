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
ROUTE_CALLS = {"oriented_grassmann_cos", "grassmann_angle", "complementary_angle"}
ROUTE_CALLS |= {"blade_norm", "blade_inner", "contract", "Contraction.norm"}
ROUTE_CALLS |= {"grassmann_angle_equal_dim", "grassmann_angle_any_dim", "complementary_angle_formula", "vector_angle"}
ROUTE_KEYS = ROW_KEYS | {f"{side}_oracle_error" for side in ("parent", "change")}


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert {"machine", "kernels", "perfbench"} <= set(record)
    rows = record["kernels"]["rows"]
    assert rows
    for row in rows:
        keys = ROUTE_KEYS if row["call"] in ROUTE_CALLS else KERNEL_KEYS
        assert keys <= set(row)
        assert row["call"] in {"orthonormalize", "from_spanning"} | ROUTE_CALLS
        assert row["field"] in {"real", "complex"}
        assert 1 <= row["k"] <= row["n"]
        assert all(isinstance(row[key], float) and row[key] >= 0.0 for key in keys - {"call", "field", "n", "k"})
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
