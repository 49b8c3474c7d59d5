"""Span recording around the package's layers, installed from outside.

A traced run replaces the public functions and methods of every layer module,
the names other modules bound with ``from .x import y``, and
``numpy.linalg.{svd,det,solve,qr}`` with wrappers that record one span per
call: name, start, end, parent and whether it raised.  Spans stay in memory;
``fold`` turns the spans of one op into per-name counts and self times
(duration minus the time its child spans cover).  ``uninstall`` puts every
original back and ``leftover_wrappers`` proves it did.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "grassmann_angles"
# The package's modules that form a layer; `fields` and `errors` are too thin.
LAYERS = ("linalg", "exterior", "subspaces", "angles", "identities", "sampling", "documents", "gallery", "cli")
NUMPY_LINALG = ("svd", "det", "solve", "qr")
ROUTES = (
    "grassmann_angle",
    "grassmann_angle_principal",
    "grassmann_angle_any_dim",
    "grassmann_angle_equal_dim",
    "complementary_angle",
    "complementary_angle_formula",
    "complementary_angle_orthonormal",
    "oriented_grassmann_cos",
)
ROUTE_SPANS = frozenset(f"angles.{r}" for r in ROUTES)
_MARK = "__perfbench_span__"


class Tracer:
    """Collects spans as ``(name, start, end, parent index, raised)``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn):
        spans_of, stack = (lambda: self.spans), self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = spans_of()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, raised)

        setattr(wrapper, _MARK, name)
        return wrapper


def layer_of(span_name: str) -> str:
    return "numpy.linalg" if span_name.startswith("numpy.linalg.") else span_name.split(".", 1)[0]


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def _method_targets(layer: str, cls):
    # a hand-written __init__ is the constructor span ("exterior.Blade");
    # generated ones (dataclasses, named tuples) are not the layer's work
    own_init = not dataclasses.is_dataclass(cls) and not issubclass(cls, tuple)
    for attr, raw in vars(cls).items():
        if attr == "__init__" and own_init:
            name = f"{layer}.{cls.__name__}"
        elif not attr.startswith("_"):
            name = f"{layer}.{cls.__name__}.{attr}"
        else:
            continue
        if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
            yield cls, attr, name, raw


def _targets():
    """(owner, attribute, span name, original) for each callable to wrap."""
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, attr, f"{layer}.{attr}", obj
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                yield from _method_targets(layer, obj)
    for fname in NUMPY_LINALG:
        yield np.linalg, fname, f"numpy.linalg.{fname}", getattr(np.linalg, fname)


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the patches for ``uninstall``."""
    patches, wrapped = [], {}
    for owner, attr, name, raw in list(_targets()):
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(tracer.wrap(name, raw.__func__))
        else:
            new = tracer.wrap(name, raw)
            wrapped[id(raw)] = (raw, new)
        patches.append((owner, attr, raw))
        setattr(owner, attr, new)
    # names other modules bound with `from .x import y` still hold originals
    for module in package_modules():
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((module, attr, obj))
                setattr(module, attr, hit[1])
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, raw in reversed(patches):
        setattr(owner, attr, raw)


def leftover_wrappers() -> list[str]:
    """Every place a span wrapper is still reachable; empty after ``uninstall``."""
    found = []
    for module in package_modules() + [np.linalg]:
        for attr, obj in list(vars(module).items()):
            if callable(obj) and getattr(obj, _MARK, None):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                for name, raw in vars(obj).items():
                    if getattr(getattr(raw, "__func__", raw), _MARK, None):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


@dataclasses.dataclass
class Profile:
    """Per-name totals over the traced ops, plus per-key (route or suite) counts."""

    ops: int = 0
    calls: Counter = dataclasses.field(default_factory=Counter)
    self_s: defaultdict = dataclasses.field(default_factory=lambda: defaultdict(float))
    raised: Counter = dataclasses.field(default_factory=Counter)
    route_evaluations: int = 0
    route_calls: int = 0
    route_calls_raised: int = 0
    # key -> [ops, identities self s, outside calls into angle routes, sampling draws]
    by_key: dict = dataclasses.field(default_factory=dict)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if layer_of(name) == layer)


def self_times(spans: list) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def fold(profile: Profile, spans: list, key: str) -> None:
    """Add the spans of one op to the profile."""
    row = profile.by_key.setdefault(key, [0, 0.0, 0, 0])
    profile.ops += 1
    row[0] += 1
    for (name, _, _, parent, raised), self_s in zip(spans, self_times(spans)):
        profile.calls[name] += 1
        profile.self_s[name] += self_s
        profile.raised[name] += raised
        if name.startswith("identities."):
            row[1] += self_s
        elif name == "sampling.random_matrix":
            row[3] += 1
        elif name in ROUTE_SPANS:
            profile.route_evaluations += 1
            if parent < 0 or layer_of(spans[parent][0]) != "angles":
                profile.route_calls += 1
                profile.route_calls_raised += raised
                row[2] += 1
