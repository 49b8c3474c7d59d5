"""JSON input documents: named subspace bases over a declared field.

Schema::

    {
      "field": "real" | "complex",
      "ambient": n,
      "subspaces": {"V": [vector, ...], ...},
      "options": {"rank_eps": ..., "residual_eps": ..., "degrees": bool}
    }

A document is UTF-8 JSON.  A vector is a list of n entries; an entry is a
number or, over the complex field only, a two-element ``[re, im]`` array,
and a number beyond the float range is an input error.  Each subspace is
decoded in one flat pass over its entries: a plain ``int`` or ``float``
goes into the array as it is, and every other entry goes through
``decode_entry``, the one rule for what an entry may be.  Raw basis
vectors are kept as given (the determinant formulas need them
un-orthonormalized).  A parsed document is an immutable value: its basis
arrays are read-only and its subspace table is a read-only mapping.  It
derives each named subspace once, on the first ``subspace(name)`` call, and
hands every later call the same ``Subspace``, whose orthonormal basis is
read-only as well.  In the same way it checks each raw basis once, for the
determinant formulas, and shares the read-only checked matrix.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field
from itertools import chain
from types import MappingProxyType

import numpy as np

from .angles import _basis_matrix
from .errors import DocumentError
from .fields import DEFAULT_TOLERANCE, Field, Tolerance, _is_integer
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
    _spans: dict[str, Subspace] = dataclass_field(default_factory=dict, init=False, repr=False, compare=False)
    _checked: dict[str, np.ndarray] = dataclass_field(default_factory=dict, init=False, repr=False, compare=False)

    def basis(self, name: str) -> np.ndarray:
        try:
            return self.subspaces[name]
        except KeyError:
            known = ", ".join(sorted(self.subspaces)) or "(none)"
            raise DocumentError(f"unknown subspace {name!r}; document defines: {known}") from None

    def subspace(self, name: str) -> Subspace:
        """The subspace spanned by ``name``'s basis, orthonormalized on the first
        call and shared, read-only, by every later one; an unknown name, or one
        that spans nothing, raises DocumentError on every call."""
        span = self._spans.get(name)
        if span is None:
            span = Subspace.from_spanning(self.basis(name), field=self.field, tol=self.options.tolerance)
            if span.dim == 0:
                raise DocumentError(f"subspace {name!r} spans nothing: its vectors are all zero")
            span.onb.flags.writeable = False
            self._spans[name] = span
        return span

    def _checked_basis(self, name: str) -> np.ndarray:
        """``name``'s basis as the determinant formulas take it, checked on the
        first call by ``angles._basis_matrix`` and shared, read-only, by every
        later one; a basis that fails the check raises DegenerateBasisError on
        every call and is never kept."""
        checked = self._checked.get(name)
        if checked is None:
            checked = _basis_matrix(self.basis(name))
            checked.flags.writeable = False
            self._checked[name] = checked
        return checked


_PLAIN = (int, float)  # the entry types that go into an array as they are


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def decode_entry(entry, field: Field):
    if _is_number(entry):
        return float(entry)
    if isinstance(entry, list) and len(entry) == 2 and _is_number(entry[0]) and _is_number(entry[1]):
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
    if not _is_integer(ambient) or ambient < 1:
        raise DocumentError(f"ambient must be a positive integer, got {ambient!r}")
    raw_subspaces = obj.get("subspaces")
    if not isinstance(raw_subspaces, dict) or not raw_subspaces:
        raise DocumentError("document needs a nonempty 'subspaces' object")

    subspaces: dict[str, np.ndarray] = {}
    for name, vectors in raw_subspaces.items():
        if not isinstance(vectors, list) or not vectors:
            raise DocumentError(f"subspace {name!r} must be a nonempty list of vectors")
        # the vectors before the first malformed one are decoded first, so their entry errors come first
        malformed = (i for i, vec in enumerate(vectors) if not isinstance(vec, list) or len(vec) != ambient)
        good = next(malformed, len(vectors))
        try:
            entries = [x if type(x) in _PLAIN else decode_entry(x, field) for x in chain.from_iterable(vectors[:good])]
            if good < len(vectors):
                raise DocumentError(f"subspace {name!r}: every vector must have length {ambient}")
            basis = np.array(entries, dtype=field.dtype).reshape(len(vectors), ambient).T
        except OverflowError:
            raise DocumentError(f"subspace {name!r}: a number is too large for a float") from None
        basis.flags.writeable = False
        subspaces[name] = basis

    raw_options = obj.get("options", {})
    if not isinstance(raw_options, dict):
        raise DocumentError("'options' must be an object")
    known = {"rank_eps", "residual_eps", "degrees"}
    unknown = set(raw_options) - known
    if unknown:
        raise DocumentError(f"unknown options: {sorted(unknown)}")
    eps = {}
    for name in ("rank_eps", "residual_eps"):
        value = raw_options.get(name, getattr(DEFAULT_TOLERANCE, name))
        if not _is_number(value):
            raise DocumentError(f"option {name} must be a number, got {value!r}")
        try:
            eps[name] = float(value)
        except OverflowError:
            raise DocumentError(f"option {name} is too large for a float") from None
    if not isinstance(raw_options.get("degrees", False), bool):
        raise DocumentError(f"option degrees must be true or false, got {raw_options['degrees']!r}")
    try:
        tolerance = Tolerance(**eps)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    options = DocumentOptions(tolerance=tolerance, degrees=raw_options.get("degrees", False))
    return InputDocument(field=field, ambient=ambient, subspaces=MappingProxyType(subspaces), options=options)


def load_document(path) -> InputDocument:
    """The document at ``path``, read as UTF-8: a file system path, or a
    resource of an ``importlib.resources`` package, which may sit inside a
    zip archive."""
    try:
        if hasattr(path, "read_bytes"):
            data = path.read_bytes()
        else:
            with open(os.fspath(path), "rb") as file:
                data = file.read()
    except OSError as exc:
        raise DocumentError(f"cannot read document {path}: {exc}") from None
    try:
        text = data.decode("utf-8")  # a BOM stays, and json.loads rejects it
    except UnicodeDecodeError as exc:
        raise DocumentError(f"document {path} is not UTF-8: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document {path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past Python's limit on the digits it converts
        raise DocumentError(f"document {path} has a number too long to read: {exc}") from None
    return parse_document(obj)
