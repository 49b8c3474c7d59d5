"""Benchmark of the grassmann_angles package: one command, one workload per run.

    python3 perfbench/run.py --workload angle-pairs --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
no tracing.  With ``--trace 1`` it runs the same ops once untraced and once
with span wrappers installed, and reports the per-layer metrics and the
tracing overhead.  Every output is checked against the numpy-only oracle.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The full report (run configuration, failures per route and suite, and in a
traced run the spans of the first ops) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads
from calibration import START_REFERENCE_CODE, Calibration, scale_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 15  # fresh processes per run, each followed by a reference process
SETUP_SEED = 0  # the set-up probes do the same work whatever the run's seed
WARMUP_OPS = 16  # a rotation of verify-all, two of angle-pairs, three of cli-main
DUMP_OPS = 50  # traced ops whose raw spans are written out
# Tail percentile per workload: the highest with at least 10 samples beyond it
# in a 25 s run whose estimate stays steady between runs.  It is fixed so that
# a faster program is compared at the same percentile.
TAIL_PCT = {"angle-pairs": 99.0, "verify-all": 90.0, "cli-main": 90.0}


def listed_metrics(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return benchmark["per_layer" if trace else "end_to_end"]


# -- measuring -------------------------------------------------------------------


def closed_loop(call, seconds: float | None = None, count: int | None = None, after=None):
    """Call ``call(k)`` for k = 0, 1, ... until ``seconds`` of op time pass or ``count`` ops are done.

    Returns per-op latencies, outputs (an exception is an output) and the
    calibration taken between ops.  ``after(k, output)`` and the calibration
    kernel run outside the timed region.
    """
    latencies, outputs, cal = [], [], Calibration()
    cal.run(at=0)
    busy, k = 0.0, 0
    while count is None or k < count:
        t0 = perf_counter()
        try:
            out = call(k)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        t1 = perf_counter()
        latencies.append(t1 - t0)
        outputs.append(out)
        if after is not None:
            after(k, out)
        busy += t1 - t0
        k += 1
        cal.tick(at=k)
        if seconds is not None and busy >= seconds:
            break
    return latencies, outputs, cal


def timing_summary(latencies: list[float], cal: Calibration, tail_pct: float) -> dict:
    """Throughput, median and tail latency of one loop, raw and at the reference speed."""
    n = len(latencies)

    def stats(seconds):
        ms = np.asarray(seconds) * 1e3
        return {
            "ops_per_s": n / (ms.sum() / 1e3),
            "p50_ms": float(np.median(ms)),
            "tail_ms": float(np.percentile(ms, tail_pct)),
            "p99.9_ms": float(np.percentile(ms, 99.9)),
        }

    raw, scaled = stats(latencies), stats(cal.scale(latencies))
    return {
        "samples": n,
        "tail_pct": tail_pct,
        "samples_beyond_tail": int(np.sum(np.asarray(latencies) * 1e3 > raw["tail_ms"])),
        "busy_s": float(sum(latencies)),
        "raw": raw,
        "slowdown": cal.slowdown(),
        "calibrations": len(cal.times),
        **scaled,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(workload: str, runs: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh process to its exit, for ``runs`` processes
    that each import the package and finish one warm-up op: the first op of
    SETUP_SEED, or for cli-main the first command (`angle ... --json`).

    Each is followed by a reference process that imports numpy only; its
    times come second.  Both are raw; ``calibration.scale_start`` relates them."""
    if workload == "cli-main":
        argv = [sys.executable, "-m", "grassmann_angles", *workloads.cli_argv(ROOT, 0)]
    else:
        argv = [sys.executable, str(HERE / "child.py"), "setup", workload, str(SETUP_SEED)]
    reference = [sys.executable, "-c", START_REFERENCE_CODE]
    times = {"package": [], "reference": []}
    for _ in range(runs):
        for key, args in (("package", argv), ("reference", reference)):
            start = perf_counter()
            subprocess.run(args, cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=120)
            times[key].append(perf_counter() - start)
    return times["package"], times["reference"]


def measure_cli_import(runs: int) -> list[float]:
    """Seconds to import ``grassmann_angles.cli`` in each of ``runs`` fresh processes."""
    argv = [sys.executable, str(HERE / "child.py"), "import"]
    return [
        float(subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True, timeout=120).stdout)
        for _ in range(runs)
    ]


def peak_rss_mb() -> float:
    """Largest resident set of any child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def failure_table(outcomes) -> dict:
    table: dict[str, dict] = {}
    for o in outcomes:
        row = table.setdefault(o.key, {"attempted": 0, "failed": 0} | dict.fromkeys(workloads.KINDS[1:], 0) | {"max_error": 0.0})
        row["attempted"] += 1
        row["failed"] += o.failed
        if o.failed:
            row[o.kind] += 1
        if math.isfinite(o.error):
            row["max_error"] = max(row["max_error"], o.error)
    return table


# -- traced run ------------------------------------------------------------------


def _same_output(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if hasattr(a, "stdout"):
        return (a.returncode, a.stdout) == (b.returncode, b.stdout)
    return a == b


def traced_pass(work, count: int):
    """Run ops 0..count-1 again with the span wrappers installed."""
    profile, dumped, tracer = spans.Profile(), [], spans.Tracer()

    def after(k, out):
        recorded = tracer.take()
        spans.fold(profile, recorded, work.key(k))
        if k < DUMP_OPS:
            dumped.append({"op": k, "key": work.key(k), "spans": recorded})

    patches = spans.install(tracer)
    try:
        latencies, outputs, cal = closed_loop(work.op, count=count, after=after)
    finally:
        spans.uninstall(patches)
    return timing_summary(latencies, cal, TAIL_PCT[work.name]), outputs, profile, dumped


def layer_metrics(profile, outcomes, untraced: dict, traced: dict, cli_import_s: list[float]) -> dict[str, float]:
    ops = max(profile.ops, 1)
    calls, self_s = profile.calls, profile.self_s
    m = {}
    for f in spans.NUMPY_LINALG:
        m[f"numpy.linalg.{f}.calls"] = calls[f"numpy.linalg.{f}"] / ops
    for f in ("gram", "det", "orthonormalize"):
        m[f"linalg.{f}.calls"] = calls[f"linalg.{f}"] / ops
    for f in ("Blade", "blade_inner", "blade_norm", "coordinate_blades"):
        m[f"exterior.{f}.calls"] = calls[f"exterior.{f}"] / ops
    for f in ("complement", "project_subspace", "principal_decomposition"):
        m[f"subspaces.{f}.calls"] = calls[f"subspaces.{f}"] / ops
    m["subspaces.from_spanning.self_ms"] = self_s["subspaces.Subspace.from_spanning"] * 1e3 / ops
    m["subspaces.errors"] = sum(n for name, n in profile.raised.items() if spans.layer_of(name) == "subspaces") / ops
    for layer in spans.LAYERS + ("numpy.linalg",):
        m[f"{layer}.self_ms"] = profile.layer_self_s(layer) * 1e3 / ops

    # route results checked against the oracle: angle-pairs ops, `angle` commands
    route_of = {r: r for r in spans.ROUTES} | workloads.CLI_ROUTES
    misses = 0
    for r in spans.ROUTES:
        m[f"angles.{r}.self_ms"] = self_s[f"angles.{r}"] * 1e3 / ops
        errors = [o.error for o in outcomes if route_of.get(o.key) == r and math.isfinite(o.error)]
        m[f"angles.{r}.max_err"] = max(errors, default=0.0)
        misses += sum(1 for o in outcomes if route_of.get(o.key) == r and o.failed and math.isfinite(o.error))
    m["angles.routes_per_call"] = profile.route_evaluations / max(profile.route_calls, 1)
    m["angles.errors"] = (profile.route_calls_raised + misses) / ops

    draws = checks = 0
    for suite in workloads.SUITES:
        n, identities_s, angle_calls, suite_draws = profile.by_key.get(suite, (0, 0.0, 0, 0))
        m[f"identities.{suite}.self_ms"] = identities_s * 1e3 / max(n, 1)
        m[f"identities.{suite}.angle_calls"] = angle_calls / max(n, 1)
        draws, checks = draws + suite_draws, checks + n
    m["sampling.draws_per_check"] = draws / max(checks, 1)
    m["cli.import_ms"] = statistics.median(cli_import_s) * 1e3

    # both passes ran the same ops; compare their op time at the reference speed
    m["trace.overhead_pct"] = 100.0 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0)
    m["trace.ops_per_s"] = traced["ops_per_s"]
    m["trace.latency_p50_ms"] = traced["p50_ms"]
    # what the scaling to the reference speed divided by, for the untraced pass
    m["calibration.slowdown"] = untraced["slowdown"]
    m["calibration.raw_latency_p50_ms"] = untraced["raw"]["p50_ms"]
    return m


# -- run configuration -----------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # a plain source checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def run_config(seed: int) -> dict:
    import grassmann_angles

    digest = hashlib.sha256()
    for path in sorted((SRC / "grassmann_angles").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "package_version": grassmann_angles.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# -- entry point -----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    """One benchmark run; returns (the final JSON object, the full report)."""
    import grassmann_angles

    report = {"workload": workload, "trace": int(trace), "seconds": seconds, "config": run_config(seed)}
    if not trace:
        # measured before any other child process runs: the set-up processes' footprint
        package_s, reference_s = measure_setup(workload, setup_runs)
        report["setup"] = {"runs_s": package_s, "reference_runs_s": reference_s, "peak_rss_mb": peak_rss_mb()}
    work = workloads.make(workload, grassmann_angles, ROOT, seed)
    report["redrawn_bases"] = getattr(work, "redrawn_bases", 0)
    closed_loop(work.op, count=WARMUP_OPS)

    latencies, outputs, cal = closed_loop(work.op, seconds=seconds / 2 if trace else seconds)
    outcomes = [work.check(k, out) for k, out in enumerate(outputs)]
    # every miss of the oracle counts in error_rate; an op "failed" outright only
    # when the miss is gross, beyond the known numerical defects, and that also
    # makes the run incorrect
    misses = sum(o.failed for o in outcomes)
    failed = sum(o.gross for o in outcomes)
    correct = failed == 0
    timing = timing_summary(latencies, cal, TAIL_PCT[workload])
    report.update(timing=timing, error_rate=misses / len(outputs), failures=failure_table(outcomes))

    if trace:
        traced, out_t, profile, dumped = traced_pass(work, len(outputs))
        leftovers = spans.leftover_wrappers()
        outcomes_t = [work.check(k, out) for k, out in enumerate(out_t)]
        identical = all(_same_output(a, b) for a, b in zip(outputs, out_t))
        correct = correct and identical and not leftovers and not any(o.gross for o in outcomes_t)
        cli_import_s = measure_cli_import(SETUP_RUNS)
        values = layer_metrics(profile, outcomes_t, timing, traced, cli_import_s)
        report.update(
            traced_timing=traced,
            traced_outputs_identical=identical,
            leftover_wrappers=leftovers,
            cli_import_s=cli_import_s,
            traced_failures=failure_table(outcomes_t),
            spans_of_first_ops=dumped,
        )
    else:
        values = {
            "setup_s": scale_start(package_s, reference_s),
            "ops_per_s": timing["ops_per_s"],
            "latency_p50_ms": timing["p50_ms"],
            "latency_tail_ms": timing["tail_ms"],
            "success_rate": 1.0 - report["error_rate"],
            "peak_rss_mb": report["setup"]["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed_metrics(trace)}
    result = {"correct": bool(correct), "attempted": len(outputs), "failed": failed, "metrics": metrics}
    report["result"] = result
    return result, report


def _print_summary(report: dict) -> None:
    t = report["timing"]
    print(f"workload {report['workload']}  seed {report['config']['seed']}  trace {report['trace']}")
    print(f"  {t['samples']} ops in {t['busy_s']:.2f} s of op time, closed loop, one caller")
    print(
        f"  raw: {t['raw']['ops_per_s']:.6g} ops/s, p50 {t['raw']['p50_ms']:.4f} ms, "
        f"p{t['tail_pct']:g} {t['raw']['tail_ms']:.4f} ms ({t['samples_beyond_tail']} samples beyond)"
    )
    print(f"  machine slowdown {t['slowdown']:.4f} over {t['calibrations']} calibrations; the op timings below are at reference speed")
    if "setup" in report:
        package_s, reference_s = (statistics.median(report["setup"][k]) for k in ("runs_s", "reference_runs_s"))
        print(f"  set-up raw medians: package {package_s:.4f} s, reference {reference_s:.4f} s; setup_s is at reference speed")
    print(f"  error_rate {report['error_rate']:.6f}")
    for key, row in sorted(report["failures"].items()):
        kinds = ", ".join(f"{row[kind]} {kind}" for kind in workloads.KINDS[1:])
        print(f"    {key:34s} {row['failed']:6d} failed ({kinds}) of {row['attempted']:7d}  max error {row['max_error']:.3e}")
    for name, metric in report["result"]["metrics"].items():
        print(f"  {name:46s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(TAIL_PCT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grassmann_angles" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'grassmann_angles'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grassmann_angles

    if Path(grassmann_angles.__file__).resolve().parent != SRC / "grassmann_angles":
        print(f"error: imported {grassmann_angles.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report))
    _print_summary(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
