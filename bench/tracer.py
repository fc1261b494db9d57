"""In-memory spans around the public functions of ``ncjacobi``.

``install`` wraps each function listed in ``TRACED`` and rebinds every
module attribute, dictionary value and class attribute that holds it, so a
call reaches the wrapper whichever name it goes through (for example both
``ncjacobi.paths.moments_from_paths`` and ``ncjacobi.cli.moments_from_paths``).
Spans record their name, start, end and parent; a span's self time is its
duration minus the time its child spans cover.  A call nested inside an open
span of the same name (``save_family`` calling ``write_json``) records no
span of its own.  Spans are recorded only while ``Tracer.active`` is set,
which the benchmark sets around each timed operation.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _bytes_read(args, kwargs, result):
    return {"jsonio.bytes_read": os.path.getsize(args[0])}


def _bytes_written(args, kwargs, result):
    return {"jsonio.bytes_written": os.path.getsize(args[0])}


def _words(args, kwargs, result):
    return {"words.enumerate_words.words": len(result)}


def _paths(args, kwargs, result):
    return {"paths.enumerate_paths.paths": len(result)}


def _gram_order(args, kwargs, result):
    return {"functional.gram.order_max": len(result.words)}


# (span name, owner of the function, attribute, extra counter)
# owner is a module path, or "module:Class" for a method
TRACED = [
    ("cli.main", "ncjacobi.cli", "main", None),
    ("cli.cmd_moments", "ncjacobi.cli", "cmd_moments", None),
    ("cli.cmd_jacobi", "ncjacobi.cli", "cmd_jacobi", None),
    ("cli.cmd_orthonormalize", "ncjacobi.cli", "cmd_orthonormalize", None),
    ("cli.cmd_verify", "ncjacobi.cli", "cmd_verify", None),
    ("cli.cmd_freeproduct", "ncjacobi.cli", "cmd_freeproduct", None),
    ("cli.cmd_paths", "ncjacobi.cli", "cmd_paths", None),
    ("jsonio.load", "ncjacobi.jsonio", "load_moments", _bytes_read),
    ("jsonio.load", "ncjacobi.jsonio", "load_family", _bytes_read),
    ("jsonio.save", "ncjacobi.jsonio", "write_json", _bytes_written),
    ("jsonio.save", "ncjacobi.jsonio", "save_moments", _bytes_written),
    ("jsonio.save", "ncjacobi.jsonio", "save_family", _bytes_written),
    ("words.enumerate_words", "ncjacobi.words", "enumerate_words", _words),
    ("functional.table_build", "ncjacobi.functional:MomentFunctional", "__init__", None),
    ("functional.gram", "ncjacobi.functional:MomentFunctional", "gram", _gram_order),
    ("functional.inner", "ncjacobi.functional:MomentFunctional", "inner", None),
    ("functional.upper_cholesky", "ncjacobi.functional", "upper_cholesky", None),
    ("functional.kernel_table", "ncjacobi.functional", "kernel_table", None),
    ("functional.hankel_check", "ncjacobi.functional", "hankel_check", None),
    ("jacobi.favard_moments", "ncjacobi.jacobi", "favard_moments", None),
    ("jacobi.operator_moment", "ncjacobi.jacobi", "operator_moment", None),
    ("jacobi.validate", "ncjacobi.jacobi", "validate", None),
    ("paths.moments_from_paths", "ncjacobi.paths", "moments_from_paths", None),
    ("paths.enumerate_paths", "ncjacobi.paths", "enumerate_paths", _paths),
    ("paths.path_weight", "ncjacobi.paths", "path_weight", None),
    ("paths.jacobi_from_moments", "ncjacobi.paths", "jacobi_from_moments", None),
    ("orthopoly.orthonormalize", "ncjacobi.orthopoly", "orthonormalize", None),
    ("orthopoly.extract_recurrence", "ncjacobi.orthopoly", "extract_recurrence", None),
    ("ncpoly.mul", "ncjacobi.ncpoly:NcPolynomial", "__mul__", None),
    ("ncpoly.add", "ncjacobi.ncpoly:NcPolynomial", "__add__", None),
    ("freeproduct.build", "ncjacobi.freeproduct", "build", None),
]

# called too often and too briefly for a span: counted only
COUNTED = [("functional.moment", "ncjacobi.functional:MomentFunctional", "moment")]


class Tracer:
    """Span store: parallel arrays of name index, start, end and parent."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def span(self, name: str, fn, extra=None):
        tracer = self
        idx = self._index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._open[name]:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            tracer.name.append(idx)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            tracer._open[name] += 1
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    if key.endswith("_max"):
                        tracer.counts[key] = max(tracer.counts[key], value)
                    else:
                        tracer.counts[key] += value
            return result

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every function in ``TRACED`` and ``COUNTED`` wherever it is bound."""
        for name, owner, attr, extra in TRACED:
            orig = _resolve(owner, attr)
            _rebind(orig, self.span(name, orig, extra))
        for name, owner, attr in COUNTED:
            orig = _resolve(owner, attr)
            _rebind(orig, self.counter(name, orig))

    def summary(self) -> dict[str, float]:
        """Per-name call counts and self seconds, plus the extra counters."""
        n = len(self.start)
        out: dict[str, float] = dict(self.counts)
        if not n:
            return out
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        for i, label in enumerate(self.names):
            out[label + ".calls"] = int(calls[i])
            out[label + ".self_s"] = float(self_s[i])
            out[label + ".total_s"] = float(np.sum(dur[name == i]))
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                    f"{self.parent[i]}\n"
                )


def _resolve(owner: str, attr: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    return obj.__dict__[attr]


def _rebind(orig, wrapper) -> None:
    """Point every ncjacobi module attribute, dict value and class attribute
    that holds ``orig`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if modname != "ncjacobi" and not modname.startswith("ncjacobi."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is orig:
                        value[key] = wrapper
            elif isinstance(value, type) and value.__module__.startswith("ncjacobi"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is orig:
                        setattr(value, cattr, wrapper)
