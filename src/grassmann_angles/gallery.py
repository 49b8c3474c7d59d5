"""Bundled worked examples with known exact answers.

Each case loads one of the data documents shipped with the package, runs a
specific angle computation, and reports expected-vs-computed pairs.  The
case ids ("3.2", "3.5", ...) are stable labels used by the CLI's ``--only``
selector.

Each bundled document is loaded once per process, on first use, by
``load_document``, as the CLI loads a document, from the ``data/`` of the
package this module belongs to, under whatever name it was imported; like
every parsed document it is read-only, so no caller can change what later
callers get.  A document derives each named subspace on its first
``subspace(name)`` call and hands every later call the same read-only
``Subspace``, so a cold run orthonormalizes 6 (document, name) pairs and a
later run none.  Cases 3.2, 3.5, 3.8 and 3.9 evaluate the determinant
formulas by their kernels on the matrices of ``_checked_basis``, which a
document also checks once per name and shares read-only: a cold run makes 6
orthonormalizations and 4 basis checks, and a warm run makes none.
The 4.x cases sum squared cosines over coordinate subspaces; they take all
terms from one Gram matrix in one stacked determinant, as the identity
checkers do, instead of one angle route call per coordinate subspace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .angles import _any_dim, _complementary_formula, _equal_dim, complementary_angle_orthonormal, vector_angle
from .documents import InputDocument, load_document
from .errors import DocumentError
from .subspaces import _coordinate_cos_squared, complement, principal_decomposition

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

    def passed(self) -> bool:
        return self.error <= EXAMPLES_TOLERANCE

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

    def passed(self) -> bool:
        return all(c.passed() for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "title": self.title,
            "passed": self.passed(),
            "checks": [c.to_dict() for c in self.checks],
        }


@functools.cache
def load_case_document(name: str) -> InputDocument:
    """The bundled document ``name``, loaded on first use and shared by every later caller."""
    return load_document(resources.files(__package__).joinpath("data", name))


def _case_3_2() -> list[GalleryCheck]:
    doc = load_case_document("complex_planes.json")
    formula = _equal_dim(doc._checked_basis("V"), doc._checked_basis("W"))
    hermitian = vector_angle(doc.basis("v_line")[:, 0], doc.basis("w_line")[:, 0], field=doc.field).hermitian
    return [
        GalleryCheck("cos of the plane pair via the equal-dimension determinant formula", _COS_THIRD, formula.cosine),
        GalleryCheck("cos via the Hermitian angle of the transversal lines", _COS_THIRD, math.cos(hermitian)),
    ]


def _case_3_5() -> list[GalleryCheck]:
    doc = load_case_document("line_plane_r4.json")
    mv, mw = doc._checked_basis("V"), doc._checked_basis("W")
    forward, backward = _any_dim(mv, mw), _any_dim(mw, mv)
    return [
        GalleryCheck("line-to-plane angle in degrees", 45.0, forward.degrees),
        GalleryCheck("plane-to-line angle in degrees (forced by dimensions)", 90.0, backward.degrees),
    ]


def _case_3_8() -> list[GalleryCheck]:
    doc = load_case_document("line_plane_r4.json")
    v, w = doc.subspace("V"), doc.subspace("W")
    mv, mw = doc._checked_basis("V"), doc._checked_basis("W")
    eq11_vw, eq11_wv = _complementary_formula(mv, mw), _complementary_formula(mw, mv)
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
    eq11 = _complementary_formula(doc._checked_basis("V"), doc._checked_basis("W"))
    eq12 = complementary_angle_orthonormal(doc.subspace("V"), doc.subspace("W"))
    # the shared line forces a 90-degree complementary angle; its squared
    # cosine (the formulas' native output) is where full precision lives
    return [
        GalleryCheck("squared cos of the complementary angle via the Schur formula", 0.0, eq11.cos_squared),
        GalleryCheck("squared cos of the complementary angle via det(1 - P P*)", 0.0, eq12.cos_squared),
    ]


def _standard_sum(document: str, name: str, q: int) -> float:
    """Sum of the squared cosines between subspace ``name`` of ``document``
    and the coordinate q-subspaces of the standard basis."""
    onb = load_case_document(document).subspace(name).onb
    return float(np.sum(_coordinate_cos_squared(np.eye(onb.shape[0]), onb, q)))


def _case_4_2() -> list[GalleryCheck]:
    total = _standard_sum("line_r3.json", "L", 1)
    return [GalleryCheck("sum of squared direction cosines against the axes", 1.0, total)]


def _case_4_6() -> list[GalleryCheck]:
    doc = load_case_document("complex_planes.json")
    basis = doc.basis("basis")
    cos_squared = _coordinate_cos_squared(basis / np.linalg.norm(basis, axis=0), doc.subspace("V").onb, 2)
    checks = [
        GalleryCheck(f"cos against coordinate plane {k + 1} of the unitary basis", _COS_THIRD, float(c))
        for k, c in enumerate(np.sqrt(cos_squared))
    ]
    checks.append(GalleryCheck("sum of the squared cosines", 1.0, float(np.sum(cos_squared))))
    return checks


def _case_4_8() -> list[GalleryCheck]:
    total = _standard_sum("line_r3.json", "L", 2)
    return [GalleryCheck("sum of squared cosines against the coordinate planes", 2.0, total)]


def _case_4_9() -> list[GalleryCheck]:
    total = _standard_sum("plane_r3.json", "V", 1)
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
