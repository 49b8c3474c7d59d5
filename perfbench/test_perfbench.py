"""Self-tests of the benchmark harness: ``python -m pytest perfbench -q``.

They check that the harness runs and reports what it promises; none of them
checks a timing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

import oracle
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
import grassmann_angles as ga  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DATA = run.SRC / "grassmann_angles" / "data"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result, report = run.run(workload, seed=3, seconds=0.2, trace=bool(trace), setup_runs=1)
    assert len(result["metrics"]) == len(BENCHMARK["per_layer" if trace else "end_to_end"])
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    assert report["config"]["seed"] == 3 and report["timing"]["samples"] == result["attempted"]
    # known-defect misses count in error_rate; only gross ones are failed ops
    assert result["failed"] == sum(row["gross"] for row in report["failures"].values()) == 0
    misses = sum(row["failed"] for row in report["failures"].values())
    assert report["error_rate"] == misses / result["attempted"]
    if trace:
        assert report["leftover_wrappers"] == [] and report["traced_outputs_identical"]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_oracles_agree_with_the_documents_exact_answers():
    r4 = oracle.load_bases(DATA / "line_plane_r4.json")
    planes = oracle.load_bases(DATA / "complex_planes.json")
    assert oracle.grassmann_cos(r4["V"], r4["W"]) == pytest.approx(oracle.SQRT_HALF, abs=1e-14)
    assert oracle.grassmann_cos(r4["W"], r4["V"]) == 0.0  # plane into line: 90 degrees
    assert oracle.complementary_cos(r4["V"], r4["W"]) == pytest.approx(oracle.SQRT_HALF, abs=1e-14)
    assert oracle.complementary_cos(planes["V"], planes["W"]) == pytest.approx(0.0, abs=1e-14)
    assert oracle.grassmann_cos(planes["V"], planes["W"]) == pytest.approx(oracle.COS_THIRD, abs=1e-14)
    assert oracle.principal_cosines(planes["V"], planes["W"]) == pytest.approx([1.0, oracle.COS_THIRD], abs=1e-14)
    assert abs(oracle.oriented_cos(planes["V"], planes["W"])) == pytest.approx(oracle.COS_THIRD, abs=1e-14)
    assert oracle.CLI_EXPECTED["angle"]["cos"] == pytest.approx(oracle.grassmann_cos(r4["V"], r4["W"]), abs=1e-14)


def test_oriented_oracle_tracks_orientation():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((5, 3))
    assert oracle.oriented_cos(v, v) == pytest.approx(1.0)
    assert oracle.oriented_cos(v, v[:, [1, 0, 2]]) == pytest.approx(-1.0)


def test_only_the_named_routes_have_known_defects():
    # endpoint defect: a tiny miss at cos = 0, only on the two determinant-of-(1 - PP*) routes
    endpoint = workloads.angle_outcome("r", 4.7e-8, 0.0, "complementary_angle_formula")
    assert endpoint.failed and endpoint.kind == "endpoint"
    assert workloads.angle_outcome("r", 4.7e-8, 0.0, "complementary_angle").gross
    # a p > q pair of a grassmann route has cosine 0; returning 5e-5 there is gross
    assert workloads.angle_outcome("r", 5e-5, 0.0, "grassmann_angle").gross
    assert workloads.angle_outcome("r", 5e-5, 0.0, "grassmann_angle_any_dim", cond_sq=2.0).gross
    # conditioning defect: only on the Gram-determinant routes, only as large as cond^2 allows
    cond_sq = 2 * 3e4**2
    assert workloads.angle_outcome("r", 0.5 + 2e-8, 0.5, "grassmann_angle_any_dim", cond_sq).kind == "conditioning"
    assert workloads.angle_outcome("r", 0.5 + 2e-8, 0.5, "grassmann_angle_any_dim", cond_sq=2.0).gross
    assert workloads.angle_outcome("r", 0.5 + 2e-8, 0.5, "grassmann_angle_principal", cond_sq).gross
    # the oriented route loses as much, but a wrong sign stays gross
    assert workloads.angle_outcome("r", -1 - 2e-8, -1.0, "oriented_grassmann_cos", cond_sq).kind == "conditioning"
    assert workloads.angle_outcome("r", 0.5, -0.5, "oriented_grassmann_cos", cond_sq).gross
    # without a route (CLI outputs) every miss is gross
    assert workloads.angle_outcome("r", 4.7e-8, 0.0).gross
    assert not workloads.angle_outcome("r", 0.5 + 1e-12, 0.5).failed


def test_a_consistency_error_is_a_known_defect_only_at_the_endpoint_of_the_named_routes():
    work = workloads.make("angle-pairs", ga, run.ROOT, seed=5, small=True)
    raised = ga.NumericalConsistencyError("squared cosine came out well below 0")
    by_route = {work.key(k): k for k in range(work.cycle)}
    for route, kind in [("complementary_angle_formula", "endpoint"), ("grassmann_angle", "gross")]:
        k = by_route[route]
        work.expected[k], work.cond_sq[k] = 0.0, 2.0
        assert work.check(k, raised).kind == kind
    assert work.check(by_route["grassmann_angle"], ValueError("boom")).gross


def test_wrappers_cover_aliases_and_numpy_then_go_away():
    from grassmann_angles import cli, identities, subspaces

    original = identities.grassmann_angle
    patches = spans.install(spans.Tracer())
    try:
        for wrapped in (identities.grassmann_angle, cli.run_suite, ga.grassmann_angle, np.linalg.svd):
            assert getattr(wrapped, "__perfbench_span__", None)
        assert getattr(subspaces.Subspace.__dict__["from_spanning"].__func__, "__perfbench_span__", None)
        assert spans.leftover_wrappers()
    finally:
        spans.uninstall(patches)
    assert spans.leftover_wrappers() == []
    assert identities.grassmann_angle is original


@pytest.mark.parametrize("workload", ["angle-pairs", "verify-all"])
def test_self_times_add_up_to_no_more_than_wall_time(workload):
    work = workloads.make(workload, ga, run.ROOT, seed=5, small=True)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        for k in range(16):
            start = perf_counter()
            work.op(k)
            wall = perf_counter() - start
            recorded = tracer.take()
            self_times = spans.self_times(recorded)
            assert recorded and min(self_times) >= -1e-9  # float rounding of nested differences
            assert sum(self_times) <= wall + 1e-9
    finally:
        spans.uninstall(patches)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "angle-pairs", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
