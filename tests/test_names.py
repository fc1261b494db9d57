"""Every public name and every function that the benchmark's tracer wraps still
resolves, so deleting one fails here in well under a second instead of only in
the traced benchmark smoke run.  The public names, the command-line options and
the keyword parameters of the public API are pinned too, so a new name, flag or
threshold knob has to be added here on purpose."""

import argparse
import importlib.util
import inspect
from pathlib import Path

import ncjacobi
from ncjacobi.cli import build_parser

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


PUBLIC = {
    "AdmissibleFamily", "GramReport", "LatticePath", "MomentFunctional", "NcPolynomial",
    "NotStrictlyPositiveError", "OneDimRecurrence", "OrthonormalBasis", "ResidualError",
    "ThreeTermReport", "ValidationReport", "Word", "build_free_product",
    "classical_coefficients", "coefficient_oracle", "distinguished_path", "enumerate_paths", "enumerate_words", "extract_recurrence",
    "favard_moments", "functional_free_product", "graded_rank", "hankel_check",
    "jacobi_from_moments", "kernel_table", "moments_from_paths", "motzkin_binomial_sum",
    "motzkin_number", "operator_moment", "orthonormalize", "path_weight", "product_basis",
    "product_polynomial", "random_admissible_family", "upper_cholesky", "validate",
    "verify_three_term", "words_up_to",
}


def test_public_names_are_pinned():
    assert len(ncjacobi.__all__) == len(PUBLIC)
    assert set(ncjacobi.__all__) == PUBLIC


OPTIONS = {
    "moments": {"--family", "--max-degree", "--out"},
    "jacobi": {"--moments", "--depth", "--out"},
    "orthonormalize": {"--moments", "--depth", "--out"},
    "freeproduct": {"--spec", "--depth", "--out", "--basis"},
    "paths": {"--word", "--count-only", "--family", "--out"},
    "verify": {"--family", "--moments", "--depth"},
}


def test_command_options_are_pinned():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    found = {
        name: {opt for action in parser._actions for opt in action.option_strings}
        - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert found == OPTIONS


def public_callables():
    """Every public function, class constructor and public method."""
    for name in ncjacobi.__all__:
        obj = getattr(ncjacobi, name)
        if not inspect.isclass(obj):
            yield name, obj
        elif not issubclass(obj, Exception):
            yield name, obj
            for attr in vars(obj):
                member = getattr(obj, attr)
                if callable(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance():
    # thresholds and size caps are module constants, not per-call knobs
    knobs = [
        f"{name}({param})"
        for name, fn in public_callables()
        for param in inspect.signature(fn).parameters
        if param in ("tol", "tolerance", "cap")
    ]
    assert not knobs, knobs
