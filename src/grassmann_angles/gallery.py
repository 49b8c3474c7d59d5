"""Bundled worked examples with known exact answers.

Each case loads one of the data documents shipped with the package, runs a
specific angle computation, and reports expected-vs-computed pairs.  The
case ids ("3.2", "3.5", ...) are stable labels used by the CLI's ``--only``
selector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .angles import (
    complementary_angle_formula,
    complementary_angle_orthonormal,
    grassmann_angle,
    grassmann_angle_any_dim,
    grassmann_angle_equal_dim,
    vector_angle,
)
from .documents import InputDocument, parse_document
from .errors import DocumentError
from .subspaces import _coordinate_subspaces, complement, principal_decomposition

EXAMPLES_TOLERANCE = 1e-8

_COS_THIRD = math.sqrt(3.0) / 3.0  # cosine shared by the complex-plane cases


@dataclass(frozen=True)
class GalleryCheck:
    label: str
    expected: float
    computed: float

    @property
    def error(self) -> float:
        return abs(self.computed - self.expected)

    def passed(self, tol: float = EXAMPLES_TOLERANCE) -> bool:
        return self.error <= tol

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "expected": self.expected,
            "computed": self.computed,
            "error": self.error,
            "passed": self.passed(),
        }


@dataclass(frozen=True)
class GalleryResult:
    case_id: str
    title: str
    checks: tuple[GalleryCheck, ...]

    def passed(self, tol: float = EXAMPLES_TOLERANCE) -> bool:
        return all(c.passed(tol) for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "title": self.title,
            "passed": self.passed(),
            "checks": [c.to_dict() for c in self.checks],
        }


def load_case_document(name: str) -> InputDocument:
    text = resources.files("grassmann_angles").joinpath("data", name).read_text()
    return parse_document(json.loads(text))


def _case_3_2() -> list[GalleryCheck]:
    doc = load_case_document("complex_planes.json")
    formula = grassmann_angle_equal_dim(doc.basis("V"), doc.basis("W"), field=doc.field)
    hermitian = vector_angle(doc.basis("v_line")[:, 0], doc.basis("w_line")[:, 0], field=doc.field).hermitian
    return [
        GalleryCheck("cos of the plane pair via the equal-dimension determinant formula", _COS_THIRD, formula.cosine),
        GalleryCheck("cos via the Hermitian angle of the transversal lines", _COS_THIRD, math.cos(hermitian)),
    ]


def _case_3_5() -> list[GalleryCheck]:
    doc = load_case_document("line_plane_r4.json")
    forward = grassmann_angle_any_dim(doc.basis("V"), doc.basis("W"), field=doc.field)
    backward = grassmann_angle_any_dim(doc.basis("W"), doc.basis("V"), field=doc.field)
    return [
        GalleryCheck("line-to-plane angle in degrees", 45.0, forward.degrees),
        GalleryCheck("plane-to-line angle in degrees (forced by dimensions)", 90.0, backward.degrees),
    ]


def _case_3_8() -> list[GalleryCheck]:
    doc = load_case_document("line_plane_r4.json")
    v, w = doc.subspace("V"), doc.subspace("W")
    eq11_vw = complementary_angle_formula(doc.basis("V"), doc.basis("W"), field=doc.field)
    eq11_wv = complementary_angle_formula(doc.basis("W"), doc.basis("V"), field=doc.field)
    eq12 = complementary_angle_orthonormal(v, w)
    # compare principal angles through their cosines: arccos would smear the
    # exact 0-degree angle by the square root of the round-off
    principal_cos = principal_decomposition(w, complement(v)).cosines
    return [
        GalleryCheck("complementary angle via the Schur formula, line first", 45.0, eq11_vw.degrees),
        GalleryCheck("complementary angle via the Schur formula, plane first", 45.0, eq11_wv.degrees),
        GalleryCheck("complementary angle via det(1 - P P*)", 45.0, eq12.degrees),
        GalleryCheck("cos of the smaller principal angle, plane vs line-complement", 1.0, float(principal_cos[0])),
        GalleryCheck(
            "cos of the larger principal angle, plane vs line-complement",
            math.sqrt(0.5),
            float(principal_cos[1]),
        ),
    ]


def _case_3_9() -> list[GalleryCheck]:
    doc = load_case_document("complex_planes.json")
    eq11 = complementary_angle_formula(doc.basis("V"), doc.basis("W"), field=doc.field)
    eq12 = complementary_angle_orthonormal(doc.subspace("V"), doc.subspace("W"))
    # the shared line forces a 90-degree complementary angle; its squared
    # cosine (the formulas' native output) is where full precision lives
    return [
        GalleryCheck("squared cos of the complementary angle via the Schur formula", 0.0, eq11.cos_squared),
        GalleryCheck("squared cos of the complementary angle via det(1 - P P*)", 0.0, eq12.cos_squared),
    ]


def _case_4_2() -> list[GalleryCheck]:
    doc = load_case_document("line_r3.json")
    line = doc.subspace("L")
    axes = _coordinate_subspaces(np.eye(3, dtype=doc.field.dtype), 1, doc.field)
    total = sum(grassmann_angle(line, axis).cos_squared for axis in axes)
    return [GalleryCheck("sum of squared direction cosines against the axes", 1.0, total)]


def _case_4_6() -> list[GalleryCheck]:
    doc = load_case_document("complex_planes.json")
    v = doc.subspace("V")
    planes = _coordinate_subspaces(doc.basis("basis"), 2, doc.field)
    cosines = [grassmann_angle(v, plane).cosine for plane in planes]
    checks = [
        GalleryCheck(f"cos against coordinate plane {k + 1} of the unitary basis", _COS_THIRD, c)
        for k, c in enumerate(cosines)
    ]
    checks.append(GalleryCheck("sum of the squared cosines", 1.0, sum(c * c for c in cosines)))
    return checks


def _case_4_8() -> list[GalleryCheck]:
    doc = load_case_document("line_r3.json")
    line = doc.subspace("L")
    planes = _coordinate_subspaces(np.eye(3, dtype=doc.field.dtype), 2, doc.field)
    total = sum(grassmann_angle(line, plane).cos_squared for plane in planes)
    return [GalleryCheck("sum of squared cosines against the coordinate planes", 2.0, total)]


def _case_4_9() -> list[GalleryCheck]:
    doc = load_case_document("plane_r3.json")
    plane = doc.subspace("V")
    axes = _coordinate_subspaces(np.eye(3, dtype=doc.field.dtype), 1, doc.field)
    total = sum(grassmann_angle(axis, plane).cos_squared for axis in axes)
    return [GalleryCheck("sum of squared cosines of the axes against the plane", 2.0, total)]


_CASES: dict[str, tuple[str, callable]] = {
    "3.2": ("complex planes sharing a line: determinant formula vs Hermitian angle", _case_3_2),
    "3.5": ("line against a plane in dimension 4, both orders", _case_3_5),
    "3.8": ("complementary angles of the line/plane pair, three routes", _case_3_8),
    "3.9": ("complementary angle of intersecting complex planes", _case_3_9),
    "4.2": ("direction cosines of a line against the axes", _case_4_2),
    "4.6": ("complex plane against the coordinate planes of a unitary basis", _case_4_6),
    "4.8": ("line against the coordinate planes", _case_4_8),
    "4.9": ("plane against the axes", _case_4_9),
}

CASE_IDS = tuple(_CASES)


def run_gallery(only: str | None = None) -> list[GalleryResult]:
    """Run all bundled cases (or a single one selected by id)."""
    if only is not None:
        if only not in _CASES:
            raise DocumentError(f"unknown case {only!r}; known cases: {', '.join(CASE_IDS)}")
        ids = [only]
    else:
        ids = list(CASE_IDS)
    results = []
    for case_id in ids:
        title, fn = _CASES[case_id]
        results.append(GalleryResult(case_id, title, tuple(fn())))
    return results
