"""Every public name and every function that the benchmark's tracer wraps still
resolves, so deleting one fails here in well under a second instead of only in
the traced benchmark smoke run."""

import importlib.util
from pathlib import Path

import ncjacobi

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    names = [(owner, attr) for _, owner, attr, _ in tracer.TRACED]
    names += [(owner, attr) for _, owner, attr in tracer.COUNTED]
    assert names
    missing = []
    for owner, attr in names:
        try:
            tracer._resolve(owner, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{owner}.{attr}")
    assert not missing, missing


def test_public_names_resolve():
    missing = [name for name in ncjacobi.__all__ if not hasattr(ncjacobi, name)]
    assert not missing, missing
