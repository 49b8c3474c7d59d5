"""The benchmark's three workloads.

Each is a closed loop: one caller, and op k + 1 starts when op k has
finished.  Inputs come from the seed alone and are built before timing;
``check`` compares an op's output with the numpy-only oracle after timing.

- angle-pairs: raw basis vectors in, one public angle result out, rotating
  over the eight routes.  Stresses the per-call overhead of the scalar API.
- verify-all: one ``run_suite`` cell (suite, field, seed) with trials=1,
  rotating over the 8 suites x 2 fields of the default ``verify``.
- cli-main: one ``grassmann_angles.cli.main`` call on a bundled document,
  rotating over five commands; the set-up probes run it as a fresh process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

import oracle
from spans import ROUTES

SUITES = (
    "line-partition",
    "pythagorean",
    "binomial",
    "oriented-sum",
    "weighted-average",
    "direct-sum",
    "partition-chain",
    "converse",
)
AMBIENT_DIMS = (3, 6, 10, 16)
# Raw bases are Gaussian.  One is drawn again only when the package would
# reject it: its basis routes accept a condition number up to 1e6 (a Gram
# condition limit of 1e12).  The report counts these redraws.
BASIS_COND_LIMIT = 1e6

# Two known defects, named so that `correct` turns false only beyond them.
# Both still count as failures, per route, in `failed` and `success_rate`.
# - endpoint: these routes take a square root of a rounded determinant, so
#   near cos = 0 a miss of ~1e-8 in the cosine is ~1e-16 in cos^2.
ENDPOINT_ROUTES = frozenset({"complementary_angle_formula", "complementary_angle_orthonormal"})
# - conditioning: these routes form Gram determinants from the raw bases
#   (the oriented one through blade inner products and norms), which loses
#   about cond^2 * eps in cos^2.  CONDITIONING_FACTOR is 10x the worst ratio
#   of cos^2 error to (cond_V^2 + cond_W^2) * eps seen on 8000 bases with
#   condition numbers spread up to 1e6.
DETERMINANT_ROUTES = frozenset(
    {"grassmann_angle_any_dim", "grassmann_angle_equal_dim", "complementary_angle_formula", "oriented_grassmann_cos"}
)
CONDITIONING_FACTOR = 1e4
EPS = float(np.finfo(float).eps)
# A NumericalConsistencyError means a cos^2 (or its imaginary part) came out
# beyond the package's slack of 1e-9, so it misses by at least this much.
RAISE_SLACK = 1e-9
KINDS = ("ok", "endpoint", "conditioning", "gross")


class Outcome(NamedTuple):
    """``kind`` is one of KINDS; every kind but "ok" is a failure, and a
    "gross" one makes the run incorrect."""

    key: str
    kind: str
    error: float

    @property
    def failed(self) -> bool:
        return self.kind != "ok"

    @property
    def gross(self) -> bool:
        return self.kind == "gross"


def classify(route: str | None, error: float, cos_sq_error: float, cond_sq: float = 0.0) -> str:
    """Kind of a result whose cosine is ``error`` from the oracle and whose
    cos^2 is ``cos_sq_error`` from it.  ``cond_sq`` is cond_V^2 + cond_W^2 of
    the raw bases; ``route`` None admits no known defect."""
    if error <= oracle.TOLERANCE:
        return "ok"
    if route in ENDPOINT_ROUTES and cos_sq_error <= oracle.TOLERANCE:
        return "endpoint"
    # A cos^2 miss of `bound` moves a square root by at most sqrt(bound); the
    # second test keeps a wrong sign or phase of the oriented cosine gross.
    bound = CONDITIONING_FACTOR * cond_sq * EPS
    if route in DETERMINANT_ROUTES and cos_sq_error <= bound and error <= math.sqrt(bound):
        return "conditioning"
    return "gross"


def angle_outcome(key: str, value, expected, route: str | None = None, cond_sq: float = 0.0) -> Outcome:
    """A cosine more than TOLERANCE from the oracle is a failure."""
    error = float(abs(value - expected))
    if not math.isfinite(error):
        return error_outcome(key)
    return Outcome(key, classify(route, error, abs(abs(value) ** 2 - abs(expected) ** 2), cond_sq), error)


def error_outcome(key: str) -> Outcome:
    return Outcome(key, "gross", math.inf)


# -- angle-pairs ---------------------------------------------------------------


def _subspaces(ga, field, bv, bw):
    return ga.Subspace.from_spanning(bv, field), ga.Subspace.from_spanning(bw, field)


# route -> op; names are looked up on the package at call time so that a
# traced run goes through the installed wrappers
_ROUTE_OPS = {
    "grassmann_angle": lambda ga, f, bv, bw: ga.grassmann_angle(*_subspaces(ga, f, bv, bw)).cosine,
    "grassmann_angle_principal": lambda ga, f, bv, bw: ga.grassmann_angle_principal(*_subspaces(ga, f, bv, bw)).cosine,
    "grassmann_angle_any_dim": lambda ga, f, bv, bw: ga.grassmann_angle_any_dim(bv, bw, field=f).cosine,
    "grassmann_angle_equal_dim": lambda ga, f, bv, bw: ga.grassmann_angle_equal_dim(bv, bw, field=f).cosine,
    "complementary_angle": lambda ga, f, bv, bw: ga.complementary_angle(*_subspaces(ga, f, bv, bw)).cosine,
    "complementary_angle_formula": lambda ga, f, bv, bw: ga.complementary_angle_formula(bv, bw, field=f).cosine,
    "complementary_angle_orthonormal": lambda ga, f, bv, bw: ga.complementary_angle_orthonormal(
        *_subspaces(ga, f, bv, bw)
    ).cosine,
    "oriented_grassmann_cos": lambda ga, f, bv, bw: ga.oriented_grassmann_cos(ga.Blade(bv, field=f), ga.Blade(bw, field=f)),
}
_EQUAL_DIMS = {"grassmann_angle_equal_dim", "oriented_grassmann_cos"}
_ORACLES = {r: oracle.grassmann_cos for r in ROUTES if r.startswith("grassmann")}
_ORACLES.update({r: oracle.complementary_cos for r in ROUTES if r.startswith("complementary")})
_ORACLES["oriented_grassmann_cos"] = oracle.oriented_cos


def _raw_basis(rng, complex_field: bool, n: int, k: int) -> tuple[np.ndarray, float, int]:
    """A Gaussian n x k basis the package accepts, its condition number and
    the number of draws it took."""
    draws = 0
    while True:
        draws += 1
        m = rng.standard_normal((n, k))
        if complex_field:
            m = m + 1j * rng.standard_normal((n, k))
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] <= BASIS_COND_LIMIT * s[-1]:
            return m, float(s[0] / s[-1]), draws


class AnglePairs:
    name = "angle-pairs"

    def __init__(self, ga, seed: int, per_route: int):
        rng = np.random.default_rng(seed)
        self.ga = ga
        self.inputs, self.expected, self.cond_sq = [], [], []
        self.redrawn_bases = 0
        for _ in range(per_route):
            for route in ROUTES:
                n = int(rng.choice(AMBIENT_DIMS))
                complex_field = bool(rng.integers(2))
                p = int(rng.integers(1, n + 1))
                q = p if route in _EQUAL_DIMS else int(rng.integers(1, n + 1))
                bv, cond_v, draws_v = _raw_basis(rng, complex_field, n, p)
                bw, cond_w, draws_w = _raw_basis(rng, complex_field, n, q)
                self.redrawn_bases += draws_v + draws_w - 2
                field = ga.Field.COMPLEX if complex_field else ga.Field.REAL
                self.inputs.append((route, field, bv, bw))
                self.expected.append(_ORACLES[route](bv, bw))
                self.cond_sq.append(cond_v**2 + cond_w**2)
        self.cycle = len(self.inputs)

    def key(self, k: int) -> str:
        return self.inputs[k % len(self.inputs)][0]

    def op(self, k: int):
        route, field, bv, bw = self.inputs[k % len(self.inputs)]
        return _ROUTE_OPS[route](self.ga, field, bv, bw)

    def check(self, k: int, out) -> Outcome:
        """A NumericalConsistencyError counts as a miss of at least
        expected^2 + RAISE_SLACK in cos^2; any other exception is gross."""
        route, expected, cond_sq = self.key(k), self.expected[k % self.cycle], self.cond_sq[k % self.cycle]
        if isinstance(out, self.ga.NumericalConsistencyError):
            return Outcome(route, classify(route, math.inf, abs(expected) ** 2 + RAISE_SLACK, cond_sq), math.inf)
        if isinstance(out, Exception):
            return error_outcome(route)
        return angle_outcome(route, out, expected, route, cond_sq)


# -- verify-all ----------------------------------------------------------------


class VerifyAll:
    name = "verify-all"

    def __init__(self, ga, seed: int, seeds_per_cell: int):
        rng = np.random.default_rng(seed)
        self.ga = ga
        fields = (ga.Field.REAL, ga.Field.COMPLEX)
        self.inputs = [
            (suite, field, int(s))
            for s in rng.integers(0, 2**31, size=seeds_per_cell)
            for suite in SUITES
            for field in fields
        ]
        self.cycle = len(self.inputs)

    def key(self, k: int) -> str:
        return self.inputs[k % len(self.inputs)][0]

    def op(self, k: int):
        suite, field, seed = self.inputs[k % len(self.inputs)]
        return self.ga.run_suite(suite, field=field, n_max=6, trials=1, seed=seed)

    def check(self, k: int, out) -> Outcome:
        """Each op returns one IdentityCheck, which must be well formed (its
        name, and a ``passed`` flag that agrees with the residual) and pass
        its own 1e-8 test; anything else is gross."""
        suite, field, _ = self.inputs[k % len(self.inputs)]
        if isinstance(out, Exception) or len(out) != 1:
            return error_outcome(suite)
        check = out[0]
        residual = float(check.residual)
        well_formed = check.name == f"{suite}[{field.value}]#0" and check.passed == (residual <= oracle.TOLERANCE)
        return Outcome(suite, "ok" if check.passed and well_formed else "gross", residual)


# -- cli-main -------------------------------------------------------------------

CLI_COMMANDS = (
    ("angle", ["angle", "line_plane_r4.json", "V", "W", "--json"]),
    ("angle-complementary", ["angle", "complex_planes.json", "V", "W", "--complementary", "--json"]),
    ("angle-any-dim", ["angle", "complex_planes.json", "V", "W", "--method", "any-dim", "--json"]),
    ("principal", ["principal", "complex_planes.json", "V", "W", "--json"]),
    ("examples", ["examples", "--json"]),
)
# the angle route behind each `angle` command, for per-route errors
CLI_ROUTES = {"angle": "grassmann_angle", "angle-complementary": "complementary_angle", "angle-any-dim": "grassmann_angle_any_dim"}


def cli_argv(root: Path, command: int) -> list[str]:
    """Arguments of one CLI command, with document names resolved in the checkout."""
    data = root / "src" / "grassmann_angles" / "data"
    return [str(data / a) if a.endswith(".json") else a for a in CLI_COMMANDS[command % len(CLI_COMMANDS)][1]]


class CliResult(NamedTuple):
    returncode: int
    stdout: str


class CliMain:
    """One ``grassmann_angles.cli.main(argv)`` call per op, stdout captured.

    A fresh ``python -m grassmann_angles`` process per op measured start-up
    too, but its timings did not hold steady on a shared host; start-up is
    measured by the set-up probes instead, which run that process.
    """

    name = "cli-main"
    cycle = len(CLI_COMMANDS)

    def __init__(self, root: Path, seed: int):
        self.cli = importlib.import_module("grassmann_angles.cli")
        self.start = seed % len(CLI_COMMANDS)  # the seed picks where the rotation starts
        self.argv = [cli_argv(root, self.start + k) for k in range(len(CLI_COMMANDS))]

    def key(self, k: int) -> str:
        return CLI_COMMANDS[(self.start + k) % len(CLI_COMMANDS)][0]

    def op(self, k: int) -> CliResult:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv[k % len(self.argv)])
        return CliResult(code, out.getvalue())

    def check(self, k: int, out) -> Outcome:
        key = self.key(k)
        if isinstance(out, Exception) or out.returncode != 0:
            return error_outcome(key)
        try:
            payload = json.loads(out.stdout)
        except json.JSONDecodeError:
            return error_outcome(key)
        if key == "examples":
            return _examples_outcome(payload)
        expected = oracle.CLI_EXPECTED[key]
        if key == "principal":
            cosines = payload["cosines"]
            if len(cosines) != len(expected["cosines"]):
                return error_outcome(key)
            outcomes = [angle_outcome(key, c, e) for c, e in zip(cosines, expected["cosines"])]
        else:
            outcomes = [angle_outcome(key, payload[k], expected[k]) for k in ("cos", "value_radians")]
        return _worst(key, outcomes)


def _examples_outcome(payload) -> Outcome:
    cases = {case["case"]: case for case in payload}
    if set(cases) != set(oracle.EXAMPLES_EXPECTED):
        return error_outcome("examples")
    outcomes = []
    for case_id, expected in oracle.EXAMPLES_EXPECTED.items():
        checks = cases[case_id]["checks"]
        if len(checks) != len(expected) or not cases[case_id]["passed"]:
            return error_outcome("examples")
        outcomes += [angle_outcome("examples", c["computed"], e) for c, e in zip(checks, expected)]
    return _worst("examples", outcomes)


def _worst(key: str, outcomes: list[Outcome]) -> Outcome:
    worst = max(outcomes, key=lambda o: KINDS.index(o.kind))
    return Outcome(key, worst.kind, max(o.error for o in outcomes))


def make(name: str, ga, root: Path, seed: int, small: bool = False):
    """Build a workload; ``small`` keeps input generation cheap (set-up probes, self-tests)."""
    if name == "angle-pairs":
        return AnglePairs(ga, seed, per_route=1 if small else 1024)
    if name == "verify-all":
        return VerifyAll(ga, seed, seeds_per_cell=1 if small else 256)
    if name == "cli-main":
        return CliMain(root, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("angle-pairs", "verify-all", "cli-main")
