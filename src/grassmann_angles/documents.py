"""JSON input documents: named subspace bases over a declared field.

Schema::

    {
      "field": "real" | "complex",
      "ambient": n,
      "subspaces": {"V": [vector, ...], ...},
      "options": {"rank_eps": ..., "residual_eps": ..., "degrees": bool}
    }

A vector is a list of n entries; an entry is a number or, over the complex
field only, a two-element ``[re, im]`` array.  Raw basis vectors are kept
as given (the determinant formulas need them un-orthonormalized).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .errors import DocumentError
from .fields import DEFAULT_TOLERANCE, Field, Tolerance
from .subspaces import Subspace


@dataclass(frozen=True)
class DocumentOptions:
    tolerance: Tolerance = DEFAULT_TOLERANCE
    degrees: bool = False


@dataclass(frozen=True)
class InputDocument:
    field: Field
    ambient: int
    subspaces: Mapping[str, np.ndarray]  # name -> (ambient, k) matrix of raw basis columns
    options: DocumentOptions = dataclass_field(default_factory=DocumentOptions)

    def basis(self, name: str) -> np.ndarray:
        try:
            return self.subspaces[name]
        except KeyError:
            known = ", ".join(sorted(self.subspaces)) or "(none)"
            raise DocumentError(f"unknown subspace {name!r}; document defines: {known}") from None

    def subspace(self, name: str) -> Subspace:
        span = Subspace.from_spanning(self.basis(name), field=self.field, tol=self.options.tolerance)
        if span.dim == 0:
            raise DocumentError(f"subspace {name!r} spans nothing: its vectors are all zero")
        return span


def _is_int(value) -> bool:
    """A JSON integer; JSON's true and false are bools, not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def decode_entry(entry, field: Field):
    if _is_number(entry):
        return float(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(_is_number(x) for x in entry):
        if field is Field.REAL:
            raise DocumentError("[re, im] entries are only allowed when field is 'complex'")
        return complex(entry[0], entry[1])
    raise DocumentError(f"bad vector entry {entry!r}: expected a number or [re, im]")


def encode_scalar(value, field: Field):
    if field is Field.COMPLEX:
        z = complex(value)
        return [z.real, z.imag]
    return float(np.real(value))


def encode_vector(vec, field: Field) -> list:
    return [encode_scalar(x, field) for x in np.asarray(vec)]


def parse_document(obj) -> InputDocument:
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    try:
        field = Field(obj.get("field"))
    except ValueError:
        raise DocumentError(f"field must be 'real' or 'complex', got {obj.get('field')!r}") from None
    ambient = obj.get("ambient")
    if not _is_int(ambient) or ambient < 1:
        raise DocumentError(f"ambient must be a positive integer, got {ambient!r}")
    raw_subspaces = obj.get("subspaces")
    if not isinstance(raw_subspaces, dict) or not raw_subspaces:
        raise DocumentError("document needs a nonempty 'subspaces' object")

    subspaces: dict[str, np.ndarray] = {}
    for name, vectors in raw_subspaces.items():
        if not isinstance(vectors, list) or not vectors:
            raise DocumentError(f"subspace {name!r} must be a nonempty list of vectors")
        cols = []
        for vec in vectors:
            if not isinstance(vec, list) or len(vec) != ambient:
                raise DocumentError(f"subspace {name!r}: every vector must have length {ambient}")
            cols.append([decode_entry(x, field) for x in vec])
        subspaces[name] = np.array(cols, dtype=field.dtype).T

    raw_options = obj.get("options", {})
    if not isinstance(raw_options, dict):
        raise DocumentError("'options' must be an object")
    known = {"rank_eps", "residual_eps", "degrees"}
    unknown = set(raw_options) - known
    if unknown:
        raise DocumentError(f"unknown options: {sorted(unknown)}")
    for name in ("rank_eps", "residual_eps"):
        if name in raw_options and not _is_number(raw_options[name]):
            raise DocumentError(f"option {name} must be a number, got {raw_options[name]!r}")
    if not isinstance(raw_options.get("degrees", False), bool):
        raise DocumentError(f"option degrees must be true or false, got {raw_options['degrees']!r}")
    try:
        tolerance = Tolerance(
            rank_eps=float(raw_options.get("rank_eps", DEFAULT_TOLERANCE.rank_eps)),
            residual_eps=float(raw_options.get("residual_eps", DEFAULT_TOLERANCE.residual_eps)),
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    options = DocumentOptions(tolerance=tolerance, degrees=raw_options.get("degrees", False))
    return InputDocument(field=field, ambient=ambient, subspaces=subspaces, options=options)


def load_document(path) -> InputDocument:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DocumentError(f"cannot read document {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document {path} is not valid JSON: {exc}") from None
    return parse_document(obj)
