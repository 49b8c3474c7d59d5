"""Record a performance step as ``BENCH_<k>.json``: per-shape kernel timings
and perfbench end-to-end medians, for a parent checkout and this one.

    python bench/record.py kernels --parent PARENT/src --out BENCH_9.json
    python bench/record.py pairs --parent PARENT --workload angle-pairs \\
        --pairs 10 --first-seed 101 --out BENCH_9.json

PARENT is a source checkout of the parent commit, for instance made with
``git archive <commit> | tar -x -C PARENT``.  Each command updates its own
section of the output file and leaves the other as it is.

``kernels`` imports the package twice in one process, from ``PARENT/src``
and from this checkout's ``src/``.  For n in {3, 6, 10, 16}, k in
{1, 2, 3, 4, 5, n/2, n} and both fields it times ``orthonormalize`` and
``Subspace.from_spanning`` on one Gaussian basis, in microseconds per call:
the minimum over repeats that alternate between the two versions, next to
the interquartile range of those repeats (``*_iqr_us``).  The
``orthonormalize`` rows also time this checkout's two kernels forced on
every width, which is where the column count that selects between them
comes from.  Each row records, per version, the worst ``|Q* Q - I|`` and the
worst span error ``|P - Q Q* P|_2``, where P is the Q factor of
``np.linalg.qr``, over 20 bases of its shape.  The ``oriented_grassmann_cos``
rows time the call on two prebuilt Gaussian k-blades in R^n, and the
``grassmann_angle`` and ``complementary_angle`` rows on two prebuilt
k-dimensional subspaces spanned by Gaussian bases (the complementary
cosine is 0 by dimension when 2k > n).  Each records, per version, the worst
``|cos - oracle|`` over 20 such pairs, where the oracle is the matching
function of ``perfbench/oracle.py`` (QR- and SVD-based, numpy only).  The
``blade_norm``, ``blade_inner``, ``contract`` and ``Contraction.norm`` rows
time the call on prebuilt Gaussian blades: omega of grade k, and nu of grade
k for ``blade_inner`` and of grade min(2, k) for the contractions (whose
norm is timed on a prebuilt contraction).  Each records, per version, the
worst error over 20 such cases against the exact Gram determinants of
``tests/exact.py``, relative to the norms of the blades involved.  The
``grassmann_angle_equal_dim``, ``grassmann_angle_any_dim`` and
``complementary_angle_formula`` rows time the call on two Gaussian n x k
bases as given, and the ``vector_angle`` rows (k = 1 only) on two Gaussian
vectors.  Each records, per version, the worst ``|cos - exact|`` over 20
such pairs, where the exact cosine comes from the rational Gram
determinants of ``tests/exact.py`` (for ``vector_angle``, the cosine of the
Euclidean angle against ``Re <v, w> / (|v| |w|)``).  The bases of every
route row are drawn again above condition number 1e6, which the raw-basis
routes reject.

``pairs`` runs ``perfbench/run.py`` in both checkouts, alternating which
runs first, one seed per pair, and records every run's end-to-end metrics,
each side's median and quartiles, and how many pairs the change won per
metric (ties count for neither side).

``startup`` times REPEATS fresh processes per version and command,
alternating which version runs first: ``import grassmann_angles`` and the
commands ``angle``, ``principal``, ``examples`` and ``verify --trials 5`` on
the bundled documents.  Each process is followed by a reference process
that runs ``import numpy.linalg``, and its wall time is given at the
reference speed of ``perfbench``, as ``setup_s`` is: times
``START_REFERENCE_S`` over the reference process's time.
Each row records per version the median (``*_s``) and interquartile range
(``*_iqr_s``) of those scaled times, the raw medians, and how many of the
alternating pairs the change won.  It runs twice: with the environment as it
is (``bytecode: "as-is"``, which records ``PYTHONDONTWRITEBYTECODE``), and
with ``PYTHONPYCACHEPREFIX`` set to a temporary directory that one warm-up
run of each process fills first (``bytecode: "cached"``), so no checkout
gets a ``__pycache__``.

    python bench/record.py startup --parent PARENT --out BENCH_13.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
AMBIENT_DIMS = (3, 6, 10, 16)
CASES = 20  # bases per row for the residual columns
REPEATS = 15  # alternating timing repeats per row and version


def load_package(src: Path, alias: str):
    """The package under ``src`` imported as the top-level module ``alias``."""
    init = src / "grassmann_angles" / "__init__.py"
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def load_file(path: Path, name: str):
    """The Python file at ``path`` imported as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def widths(n: int) -> list[int]:
    return sorted({k for k in (1, 2, 3, 4, 5, n // 2, n) if 1 <= k <= n})


def gaussian(rng: np.random.Generator, complex_field: bool, n: int, k: int) -> np.ndarray:
    a = rng.standard_normal((n, k))
    return a + 1j * rng.standard_normal((n, k)) if complex_field else a


def accepted_gaussian(rng: np.random.Generator, complex_field: bool, n: int, k: int) -> np.ndarray:
    """A Gaussian n x k basis drawn again until its condition number is at
    most 1e6, the largest the raw-basis routes accept."""
    while True:
        a = gaussian(rng, complex_field, n, k)
        s = np.linalg.svd(a, compute_uv=False)
        if s[0] <= 1e6 * s[-1]:
            return a


def residuals(onb_of, bases) -> tuple[float, float]:
    """Worst orthonormality defect and worst span error of ``onb_of(a)`` over ``bases``."""
    defect = span = 0.0
    for a in bases:
        q = onb_of(a)
        defect = max(defect, float(np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])))))
        ref = np.linalg.qr(a)[0]
        span = max(span, float(np.linalg.norm(ref - q @ (q.conj().T @ ref), 2)))
    return defect, span


def best_times(calls: dict, number: int) -> dict:
    """``<name>_us``, the minimum microseconds per call of each entry over
    repeats that alternate between them, and ``<name>_iqr_us``, the
    interquartile range of those repeats."""
    runs = {name: [] for name in calls}
    for r in range(REPEATS):
        order = list(calls) if r % 2 == 0 else list(reversed(calls))
        for name in order:
            runs[name].append(timeit.timeit(calls[name], number=number) / number * 1e6)
    times = {}
    for name, values in runs.items():
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        times[f"{name}_us"], times[f"{name}_iqr_us"] = round(min(values), 2), round(q3 - q1, 2)
    return times


def span(ga, a: np.ndarray, field):
    return ga.Subspace.from_spanning(a, field)


def blade(ga, a: np.ndarray, field):
    return ga.Blade(a, field=field)


def raw(ga, a: np.ndarray, field) -> np.ndarray:
    return a


def first_column(ga, a: np.ndarray, field) -> np.ndarray:
    return a[:, 0]


def exact_vector_cos(exact, v: np.ndarray, w: np.ndarray) -> float:
    """``Re <v, w> / (|v| |w|)``, exactly but for the square root."""
    (vv, vw), (_, ww) = exact.gram(*[exact.matrix(np.column_stack([v, w]))] * 2)
    return float(exact.real_part(vw) / exact.sqrt(exact.real_part(vv) * exact.real_part(ww)))


# route -> (its reference cosine of two bases, from perfbench/oracle.py or
# tests/exact.py; the route's argument built from a basis)
ROUTES = {
    "oriented_grassmann_cos": (lambda oracle, exact, a, b: oracle.oriented_cos(a, b), blade),
    "grassmann_angle": (lambda oracle, exact, a, b: oracle.grassmann_cos(a, b), span),
    "complementary_angle": (lambda oracle, exact, a, b: oracle.complementary_cos(a, b), span),
    "grassmann_angle_equal_dim": (lambda oracle, exact, a, b: exact.cos_of(exact.grassmann_cos_squared(a, b)), raw),
    "grassmann_angle_any_dim": (lambda oracle, exact, a, b: exact.cos_of(exact.grassmann_cos_squared(a, b)), raw),
    "complementary_angle_formula": (lambda oracle, exact, a, b: exact.cos_of(exact.complementary_cos_squared(a, b)), raw),
    "vector_angle": (lambda oracle, exact, a, b: exact_vector_cos(exact, a[:, 0], b[:, 0]), first_column),
}


def cosine_of(out) -> complex | float:
    """The cosine a route returns: an ``AngleReport``'s, the Euclidean one
    of ``VectorAngles``, or the scalar itself."""
    if hasattr(out, "euclidean"):
        return math.cos(out.euclidean)
    return getattr(out, "cosine", out)


def route_row(versions: dict, oracle, exact, rng: np.random.Generator, call: str, field_name: str, n: int, k: int) -> dict:
    """Per version, microseconds per ``call`` on prebuilt arguments and the
    worst ``|cos - reference|`` over CASES pairs of Gaussian n x k bases."""
    reference, argument = ROUTES[call]
    pairs = [tuple(accepted_gaussian(rng, field_name == "complex", n, k) for _ in range(2)) for _ in range(CASES)]
    expected = [reference(oracle, exact, a, b) for a, b in pairs]
    row = {"call": call, "field": field_name, "n": n, "k": k}
    calls = {}
    for side, ga in versions.items():
        field, route = ga.Field(field_name), getattr(ga, call)
        args = [(argument(ga, a, field), argument(ga, b, field)) for a, b in pairs]
        errors = [abs(cosine_of(route(*ab)) - e) for ab, e in zip(args, expected)]
        row[f"{side}_oracle_error"] = float(max(errors))
        calls[side] = lambda route=route, ab=args[0]: route(*ab)
    row.update(best_times(calls, number=200))
    return row


def volume(f: np.ndarray) -> float:
    """The blade norm of the columns of f, from the R factor of ``np.linalg.qr``."""
    return float(np.prod(np.abs(np.linalg.qr(f)[1].diagonal())))


def exact_contraction(exact, nu: np.ndarray, omega: np.ndarray) -> tuple[list, list]:
    """The coefficients ``sigma(I) <nu, omega_I>`` of ``contract(nu, omega)``
    over the increasing p-subsets I of the columns of omega, exactly, with the
    norms ``|nu| |omega_I|`` they are measured against."""
    p, q = nu.shape[1], omega.shape[1]
    values, scales = [], []
    for index in combinations(range(q), p):
        sign = -1 if (sum(index) + p + p * (p + 1) // 2) % 2 else 1  # 1-based weight = sum(index) + p
        values.append(complex(sign * exact.blade_inner(nu, omega[:, index])))
        scales.append(volume(nu) * volume(omega[:, index]))
    return values, scales


def exact_values(exact, call: str, nu: np.ndarray, omega: np.ndarray) -> tuple[list, list]:
    """The exact outputs of ``call`` on the blades with factors nu and omega,
    and the norms each error is measured against."""
    if call == "contract":
        return exact_contraction(exact, nu, omega)
    if call == "blade_inner":
        value = complex(exact.blade_inner(nu, omega))
    elif call == "blade_norm":
        value = exact.blade_norm(omega)
    else:  # |nu _| omega| = |nu| |omega| cos(span nu, span omega)
        value = exact.blade_norm(nu) * exact.blade_norm(omega) * exact.cos_of(exact.grassmann_cos_squared(nu, omega))
    return [value], [volume(nu) * volume(omega) if call != "blade_norm" else volume(omega)]


# blade call -> (grade of nu given k, the call on prebuilt blades nu and omega of a package version)
BLADE_CALLS = {
    "blade_norm": (lambda k: k, lambda ga, nu, omega: lambda: ga.blade_norm(omega)),
    "blade_inner": (lambda k: k, lambda ga, nu, omega: lambda: ga.blade_inner(nu, omega)),
    "contract": (lambda k: min(2, k), lambda ga, nu, omega: lambda: ga.contract(nu, omega)),
    "Contraction.norm": (lambda k: min(2, k), lambda ga, nu, omega: ga.contract(nu, omega).norm),
}


def blade_row(versions: dict, exact, rng: np.random.Generator, call: str, field_name: str, n: int, k: int) -> dict:
    """Per version, microseconds per ``call`` on prebuilt Gaussian blades and
    the worst error against ``tests/exact.py`` over CASES cases."""
    grade, bind = BLADE_CALLS[call]
    cases = [(gaussian(rng, field_name == "complex", n, grade(k)), gaussian(rng, field_name == "complex", n, k)) for _ in range(CASES)]
    expected = [exact_values(exact, call, nu, omega) for nu, omega in cases]
    row = {"call": call, "field": field_name, "n": n, "k": k, "nu_grade": grade(k)}
    calls = {}
    for side, ga in versions.items():
        field = ga.Field(field_name)
        bound = [bind(ga, ga.Blade(nu, field=field), ga.Blade(omega, field=field)) for nu, omega in cases]
        errors = []
        for run, (values, scales) in zip(bound, expected):
            out = run()
            got = [c for _, c in out] if call == "contract" else [out]
            errors += [abs(g - v) / s for g, v, s in zip(got, values, scales)]
        row[f"{side}_oracle_error"] = float(max(errors))
        calls[side] = bound[0]
    terms = math.comb(k, grade(k))  # one but for the contractions; their norm takes terms^2 inner products
    number = max(1, 200 // terms ** (2 if call == "Contraction.norm" else 1))
    row.update(best_times(calls, number=number))
    return row


def kernel_rows(parent_src: Path) -> list[dict]:
    versions = {"parent": load_package(parent_src, "ga_parent"), "change": load_package(ROOT / "src", "ga_change")}
    linalg = sys.modules["ga_change.linalg"]
    threshold = linalg.QR_MIN_COLUMNS
    oracle = load_file(ROOT / "perfbench" / "oracle.py", "perfbench_oracle")
    exact = load_file(ROOT / "tests" / "exact.py", "exact_oracle")
    rng = np.random.default_rng(6)
    seeded = {call: np.random.default_rng(seed) for seed, call in enumerate([*ROUTES, *BLADE_CALLS], start=7)}
    rows = []
    for field_name in ("real", "complex"):
        for n in AMBIENT_DIMS:
            for k in widths(n):
                bases = [gaussian(rng, field_name == "complex", n, k) for _ in range(CASES)]
                a = bases[0]
                for call in ("orthonormalize", "from_spanning"):
                    row = {"call": call, "field": field_name, "n": n, "k": k}
                    calls = {}
                    for side, ga in versions.items():
                        field = ga.Field(field_name)
                        if call == "orthonormalize":
                            onb_of = lambda x, ga=ga: ga.orthonormalize(x)[0]  # noqa: E731
                        else:
                            onb_of = lambda x, ga=ga, field=field: ga.Subspace.from_spanning(x, field=field).onb  # noqa: E731
                        calls[side] = lambda onb_of=onb_of: onb_of(a)
                        row[f"{side}_orthonormality"], row[f"{side}_span_error"] = residuals(onb_of, bases)
                    row.update(best_times(calls, number=200))
                    if call == "orthonormalize":
                        for kernel, value in (("gram_schmidt", 10**6), ("householder", 0)):
                            linalg.QR_MIN_COLUMNS = value
                            row.update(best_times({kernel: lambda: versions["change"].orthonormalize(a)}, 200))
                        linalg.QR_MIN_COLUMNS = threshold
                    rows.append(row)
                    print(json.dumps(row), flush=True)
                for call, call_rng in seeded.items():
                    if call == "vector_angle" and k != 1:
                        continue
                    if call in ROUTES:
                        rows.append(route_row(versions, oracle, exact, call_rng, call, field_name, n, k))
                    else:
                        rows.append(blade_row(versions, exact, call_rng, call, field_name, n, k))
                    print(json.dumps(rows[-1]), flush=True)
    return rows


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def pairs_section(parent: Path, workload: str, pairs: int, first_seed: int, seconds: int) -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        seed = first_seed + i
        order = [("parent", parent), ("change", ROOT)]
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            runs[side].append(run_perfbench(checkout, workload, seed, seconds))
            print(side, json.dumps(runs[side][-1]), flush=True)
    summary = {}
    for metric in benchmark["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "change_wins": sum(d > 0 for d in diffs),
            "parent_wins": sum(d < 0 for d in diffs),
        }
    return {"seconds": seconds, "pairs": pairs, "seeds": [first_seed, first_seed + pairs - 1], "summary": summary, "runs": runs}


# name -> the arguments of a fresh Python process, run from the checkout's root
STARTUP_COMMANDS = {
    "import": ["-c", "import grassmann_angles"],
    "angle": ["-m", "grassmann_angles", "angle", "src/grassmann_angles/data/line_plane_r4.json", "V", "W", "--json"],
    "principal": [
        "-m", "grassmann_angles", "principal", "src/grassmann_angles/data/complex_planes.json", "V", "W", "--json"
    ],
    "examples": ["-m", "grassmann_angles", "examples", "--json"],
    "verify": ["-m", "grassmann_angles", "verify", "--trials", "5"],
}


def wall_time(argv: list[str], cwd: Path, env: dict) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=cwd, env=env, check=True, capture_output=True, timeout=300)
    return perf_counter() - start


def startup_rows(parent: Path, bytecode: str) -> list[dict]:
    calibration = load_file(ROOT / "perfbench" / "calibration.py", "perfbench_calibration")
    reference = [sys.executable, "-c", calibration.START_REFERENCE_CODE]
    checkouts = {"parent": parent, "change": ROOT}
    env = dict(os.environ)
    with tempfile.TemporaryDirectory() as cache:
        if bytecode == "cached":
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            env["PYTHONPYCACHEPREFIX"] = cache
        envs = {side: {**env, "PYTHONPATH": str(checkout / "src")} for side, checkout in checkouts.items()}
        if bytecode == "cached":  # one warm-up run of each process fills the cache
            for side, checkout in checkouts.items():
                for args in STARTUP_COMMANDS.values():
                    wall_time([sys.executable, *args], checkout, envs[side])
            wall_time(reference, ROOT, env)
        rows = []
        for command, args in STARTUP_COMMANDS.items():
            raw = {side: [] for side in checkouts}
            scaled = {side: [] for side in checkouts}
            for r in range(REPEATS):
                for side in list(checkouts) if r % 2 == 0 else list(reversed(checkouts)):
                    probe = wall_time([sys.executable, *args], checkouts[side], envs[side])
                    ref = wall_time(reference, ROOT, env)
                    raw[side].append(probe)
                    scaled[side].append(probe * calibration.START_REFERENCE_S / ref)
            row = {"bytecode": bytecode, "command": command, "argv": args, "runs": REPEATS}
            for side in checkouts:
                q = quartiles(scaled[side])
                row[f"{side}_s"], row[f"{side}_iqr_s"] = q["median"], q["q3"] - q["q1"]
                row[f"{side}_raw_s"] = statistics.median(raw[side])
            row["change_wins"] = sum(c < p for p, c in zip(scaled["parent"], scaled["change"]))
            row["parent_wins"] = sum(p < c for p, c in zip(scaled["parent"], scaled["change"]))
            if bytecode == "as-is":
                row["PYTHONDONTWRITEBYTECODE"] = env.get("PYTHONDONTWRITEBYTECODE")
            rows.append(row)
            print(json.dumps(row), flush=True)
    return rows


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    kernels = sub.add_parser("kernels", help="per-shape kernel timings and residuals")
    kernels.add_argument("--parent", type=Path, required=True, help="src/ directory of the parent checkout")
    kernels.add_argument("--out", type=Path, required=True)
    pairs = sub.add_parser("pairs", help="alternating perfbench runs of the parent and this checkout")
    pairs.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--first-seed", type=int, default=101)
    pairs.add_argument("--seconds", type=int, default=25)
    pairs.add_argument("--out", type=Path, required=True)
    startup = sub.add_parser("startup", help="alternating fresh-process start-up times of the parent and this checkout")
    startup.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    startup.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("machine", machine())
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if args.command == "kernels":
        record["kernels"] = {"recorded": stamp, "unit": "us per call", "rows": kernel_rows(args.parent.resolve())}
    elif args.command == "startup":
        rows = [row for bytecode in ("as-is", "cached") for row in startup_rows(args.parent.resolve(), bytecode)]
        record["startup"] = {"recorded": stamp, "unit": "s per process", "rows": rows}
    else:
        section = pairs_section(args.parent.resolve(), args.workload, args.pairs, args.first_seed, args.seconds)
        record.setdefault("perfbench", {})[args.workload] = {"recorded": stamp, **section}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
