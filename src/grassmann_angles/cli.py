"""Command-line front end.

Subcommands: ``angle`` and ``principal`` read a JSON document of named
subspace bases; ``verify`` runs the randomized identity suites; ``examples``
replays the bundled worked examples.  Exit codes are a stable contract:
0 success, 1 verification failure, 2 input error.

``angle`` and ``principal`` run on the modules ``import grassmann_angles``
loads.  What only one command uses is imported when that command runs:
``gallery`` by ``examples``, ``identities`` (and through it ``sampling`` and
``exterior``) by ``verify``, and ``exterior`` by ``angle --oriented``.  The
``--suite`` choices come from ``fields.SUITE_NAMES`` for that reason, and
``run_suite`` stays a name of this module through its ``__getattr__``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .angles import (
    AngleMethod,
    AngleReport,
    complementary_angle,
    complementary_angle_formula,
    complementary_angle_orthonormal,
    grassmann_angle,
    grassmann_angle_any_dim,
    grassmann_angle_equal_dim,
    grassmann_angle_principal,
    oriented_grassmann_cos,
)
from .documents import InputDocument, encode_scalar, encode_vector, load_document
from .errors import GrassmannError
from .fields import DEFAULT_TOLERANCE, SUITE_NAMES, Field, Tolerance
from .subspaces import principal_decomposition

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

_METHODS = ("projection", "equal-dim", "any-dim", "principal")


def _tolerance_from(args, doc: InputDocument | None = None) -> Tolerance:
    base = doc.options.tolerance if doc is not None else DEFAULT_TOLERANCE
    if getattr(args, "tolerance", None) is not None:
        base = Tolerance(rank_eps=base.rank_eps, residual_eps=args.tolerance)
    return base


def _emit(args, payload: dict, text_lines: list[str]):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _angle_payload(report: AngleReport, degrees: bool) -> dict:
    payload = {
        "value_radians": report.value,
        "cos": report.cosine,
        "cos_squared": report.cos_squared,
        "method": report.method.value,
        "residual": report.residual,
    }
    if degrees:
        payload["value_degrees"] = report.degrees
    return payload


def _cmd_angle(args) -> int:
    doc = load_document(args.document)
    tol = _tolerance_from(args, doc)
    degrees = args.degrees or doc.options.degrees
    name_v, name_w = args.v, args.w
    basis_v, basis_w = doc.basis(name_v), doc.basis(name_w)

    if args.oriented:
        if args.complementary:
            raise GrassmannError("--oriented and --complementary cannot be combined")
        from .exterior import Blade

        nu = Blade(basis_v, field=doc.field)
        omega = Blade(basis_w, field=doc.field)
        cos = oriented_grassmann_cos(nu, omega, tol)
        payload = {
            "cos": encode_scalar(cos, doc.field),
            "cos_squared": abs(cos) ** 2,
            "method": AngleMethod.ORIENTED.value,
            "residual": 0.0,
        }
        lines = [f"oriented cosine of {name_v} with {name_w}: {cos}"]
        if doc.field is Field.REAL:
            value = math.acos(min(max(float(np.real(cos)), -1.0), 1.0))
            payload["value_radians"] = value
            lines.append(f"oriented angle: {value} rad")
            if degrees:
                payload["value_degrees"] = math.degrees(value)
                lines.append(f"oriented angle: {math.degrees(value)} deg")
        _emit(args, payload, lines)
        return EXIT_OK

    if args.complementary:
        if args.method == "projection":
            report = complementary_angle(doc.subspace(name_v), doc.subspace(name_w))
        elif args.method in ("equal-dim", "any-dim"):
            report = complementary_angle_formula(basis_v, basis_w, field=doc.field)
        else:
            report = complementary_angle_orthonormal(doc.subspace(name_v), doc.subspace(name_w))
    else:
        if args.method == "projection":
            report = grassmann_angle(doc.subspace(name_v), doc.subspace(name_w))
        elif args.method == "equal-dim":
            report = grassmann_angle_equal_dim(basis_v, basis_w, field=doc.field)
        elif args.method == "any-dim":
            report = grassmann_angle_any_dim(basis_v, basis_w, field=doc.field)
        else:
            report = grassmann_angle_principal(doc.subspace(name_v), doc.subspace(name_w))

    kind = "complementary angle" if args.complementary else "angle"
    lines = [
        f"{kind} of {name_v} with {name_w}: {report.value} rad"
        + (f" = {report.degrees} deg" if degrees else ""),
        f"cos = {report.cosine}, cos^2 = {report.cos_squared}",
        f"method = {report.method.value}, residual = {report.residual:.3e}",
    ]
    _emit(args, _angle_payload(report, degrees), lines)
    return EXIT_OK


def _cmd_principal(args) -> int:
    doc = load_document(args.document)
    degrees = args.degrees or doc.options.degrees
    name_v, name_w = args.v, args.w
    pd = principal_decomposition(doc.subspace(name_v), doc.subspace(name_w))
    radians = [float(a) for a in pd.angles]
    payload = {
        "angles_radians": radians,
        "cosines": [float(c) for c in pd.cosines],
        "e_basis": [encode_vector(col, doc.field) for col in pd.e_basis.T],
        "f_basis": [encode_vector(col, doc.field) for col in pd.f_basis.T],
        "pairing_residual": pd.pairing_residual(),
    }
    lines = [f"principal angles of {name_v} and {name_w} (radians): {radians}"]
    if degrees:
        payload["angles_degrees"] = [math.degrees(a) for a in radians]
        lines.append(f"principal angles (degrees): {payload['angles_degrees']}")
    lines.append(f"pairing residual: {payload['pairing_residual']:.3e}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .identities import run_suite

    if args.n > 8:
        raise GrassmannError(f"ambient dimension is capped at 8 for verification runs, got {args.n}")
    if args.trials > 10000:
        raise GrassmannError(f"trials are capped at 10000, got {args.trials}")
    tol = _tolerance_from(args)
    field = None if args.field == "both" else Field(args.field)
    checks = run_suite(args.suite, field=field, n_max=args.n, trials=args.trials, seed=args.seed, tol=tol)
    failures = [c for c in checks if not c.passed]
    if args.json:
        print(json.dumps([c.to_dict() for c in checks], indent=2))
    else:
        by_suite: dict[str, list] = {}
        for c in checks:
            by_suite.setdefault(c.name.split("[")[0], []).append(c)
        for suite, items in by_suite.items():
            worst = max(i.residual for i in items)
            bad = sum(1 for i in items if not i.passed)
            status = "ok" if bad == 0 else f"{bad} FAILED"
            print(f"{suite:18s} {len(items):5d} checks  worst residual {worst:.3e}  {status}")
        for c in failures:
            print(f"FAILED {c.name}: residual {c.residual:.3e} ({c.witness})")
    return EXIT_VERIFICATION_FAILED if failures else EXIT_OK


def _cmd_examples(args) -> int:
    from .gallery import run_gallery

    results = run_gallery(only=args.only)
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        for result in results:
            status = "PASS" if result.passed() else "FAIL"
            print(f"[{status}] case {result.case_id}: {result.title}")
            for check in result.checks:
                mark = "ok " if check.passed() else "BAD"
                print(
                    f"    {mark} {check.label}: expected {check.expected!r}, "
                    f"computed {check.computed!r} (error {check.error:.3e})"
                )
    failed = [r for r in results if not r.passed()]
    return EXIT_VERIFICATION_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassmann-angles",
        description="Angles between real or complex subspaces: projections, "
        "determinant formulas, principal decompositions, and identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    angle = sub.add_parser("angle", help="angle between two named subspaces of a JSON document")
    angle.add_argument("document", help="path to the input JSON document")
    angle.add_argument("v", metavar="V", help="name of the first subspace")
    angle.add_argument("w", metavar="W", help="name of the second subspace")
    angle.add_argument("--method", choices=_METHODS, default="projection")
    angle.add_argument("--complementary", action="store_true", help="angle with the orthogonal complement of W")
    angle.add_argument("--oriented", action="store_true", help="signed/phased cosine of the raw basis blades")
    angle.add_argument("--degrees", action="store_true")
    angle.add_argument("--tolerance", type=float, help="override the residual tolerance")
    angle.add_argument("--json", action="store_true")
    angle.set_defaults(fn=_cmd_angle)

    principal = sub.add_parser("principal", help="principal angles and bases of two named subspaces")
    principal.add_argument("document")
    principal.add_argument("v", metavar="V")
    principal.add_argument("w", metavar="W")
    principal.add_argument("--degrees", action="store_true")
    principal.add_argument("--json", action="store_true")
    principal.set_defaults(fn=_cmd_principal)

    verify = sub.add_parser("verify", help="run the randomized identity suites")
    verify.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    verify.add_argument("--field", default="both", choices=("real", "complex", "both"))
    verify.add_argument("--n", type=int, default=6, help="largest ambient dimension (<= 8)")
    verify.add_argument("--trials", type=int, default=100, help="trials per suite per field (<= 10000)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=float, help="override the residual tolerance")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(fn=_cmd_verify)

    examples = sub.add_parser("examples", help="replay the bundled worked examples")
    examples.add_argument("--only", help="run a single case by id (e.g. 3.5)")
    examples.add_argument("--json", action="store_true")
    examples.set_defaults(fn=_cmd_examples)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import: parsing leaves the parser unchanged
    return build_parser()


def __getattr__(name: str):
    # run_suite stays a name of this module, resolved (not stored) on access
    if name == "run_suite":
        from .identities import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GrassmannError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
