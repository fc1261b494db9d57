"""Batch command-line front end over JSON files.

Subcommands: moments, jacobi, orthonormalize, freeproduct, paths, verify.
Exit codes: 0 success, 1 validation or numerical failure, 2 usage or input
format error.  Report lines are prefixed "ok:" or "FAIL:" for scripting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import freeproduct as fp
from . import jsonio
from .functional import POSITIVITY_TOL, NotStrictlyPositiveError
from .jacobi import favard_moments, validate
from .orthopoly import ResidualError, extract_recurrence, orthonormalize
from .paths import DEFAULT_PATH_CAP, STEP_KINDS, enumerate_paths, motzkin_number
from .paths import path_weight
from .words import Word


class CliFailure(Exception):
    """Abort with a diagnostic; carries the exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncjacobi",
        description=(
            "moment tables, block Jacobi coefficient families, orthonormal "
            "polynomials, and weighted lattice paths in non-commuting variables"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="family JSON -> moment table JSON")
    p.add_argument("--family", required=True, help="input family file")
    p.add_argument("--max-degree", type=int, required=True, help="table degree bound")
    p.add_argument("--out", required=True, help="output moment file")

    p = sub.add_parser("jacobi", help="moment table JSON -> family JSON")
    p.add_argument("--moments", required=True, help="input moment file")
    p.add_argument("--depth", type=int, required=True, help="levels to recover")
    p.add_argument("--out", required=True, help="output family file")

    p = sub.add_parser("orthonormalize", help="moment table JSON -> basis JSON")
    p.add_argument("--moments", required=True, help="input moment file")
    p.add_argument("--depth", type=int, required=True, help="orthonormalization depth")
    p.add_argument("--out", required=True, help="output basis file")

    p = sub.add_parser("freeproduct", help="one-variable recurrences -> family JSON")
    p.add_argument(
        "--spec",
        required=True,
        help="comma-separated kinds, e.g. hermite,chebyshev_t,laguerre(0.5) "
        "or custom:file.json",
    )
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True, help="output family file")
    p.add_argument("--basis", default=None, help="optionally write the product basis here")

    p = sub.add_parser("paths", help="word -> path list / count")
    p.add_argument("--word", required=True, help="comma-separated letters, e.g. 1,2,1")
    p.add_argument("--count-only", action="store_true", help="print the count only")
    p.add_argument(
        "--family", default=None, help="family file: fixes the alphabet, adds per-path weights"
    )
    p.add_argument("--out", default=None, help="optional JSON output file")

    p = sub.add_parser("verify", help="validation / positivity report")
    p.add_argument("--family", default=None, help="family file to validate")
    p.add_argument("--moments", default=None, help="moment file to validate")
    p.add_argument("--depth", type=int, default=None, help="positivity depth (moments)")

    return parser


def _load(loader, path: str):
    """Run a jsonio loader; malformed input exits 2 (unreadable input too, in main)."""
    try:
        return loader(path)
    except json.JSONDecodeError as exc:
        raise CliFailure(f"error: {path} is not valid JSON: {exc}", 2) from exc
    except jsonio.SchemaError as exc:
        raise CliFailure(f"error: {exc}", 2) from exc


def _check_depth(option: str, depth: int, bound: int, what: str) -> None:
    """A requested depth must lie in 0..bound, the depth its input can serve."""
    if depth < 0:
        raise CliFailure(f"error: {option} must be >= 0", 2)
    if depth > bound:
        raise CliFailure(f"error: {option} {depth} exceeds {what} {bound}", 2)


def _require_admissible(family, name: str):
    report = validate(family)
    if not report.ok:
        raise CliFailure(
            f"FAIL: {name}: {report.violations[0]}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else ""),
            1,
        )


def cmd_moments(args) -> int:
    family = _load(jsonio.load_family, args.family)
    _check_depth("--max-degree", args.max_degree, family.depth, "family depth")
    _require_admissible(family, f"family {args.family}")
    try:
        phi = favard_moments(family, args.max_degree)
    except (ValueError, NotStrictlyPositiveError) as exc:
        raise CliFailure(f"FAIL: {exc}", 1) from exc
    jsonio.save_moments(args.out, phi)
    print(
        f"ok: wrote {phi.values.size} moments of degree <= {args.max_degree} "
        f"(words up to length {phi.word_bound}) to {args.out}"
    )
    return 0


def cmd_jacobi(args) -> int:
    phi = _load(jsonio.load_moments, args.moments)
    _check_depth("--depth", args.depth, phi.max_degree, "table degree")
    try:
        basis = orthonormalize(phi, args.depth)
        family = extract_recurrence(basis, phi)
    except (NotStrictlyPositiveError, ResidualError) as exc:
        raise CliFailure(f"FAIL: {exc}", 1) from exc
    except ValueError as exc:
        raise CliFailure(f"error: {exc}", 2) from exc
    jsonio.save_family(args.out, family)
    print(f"ok: recovered depth-{args.depth} family from {args.moments} to {args.out}")
    return 0


def cmd_orthonormalize(args) -> int:
    phi = _load(jsonio.load_moments, args.moments)
    _check_depth("--depth", args.depth, phi.max_degree, "table degree")
    try:
        basis = orthonormalize(phi, args.depth)
    except NotStrictlyPositiveError as exc:
        raise CliFailure(f"FAIL: {exc}", 1) from exc
    jsonio.write_json(args.out, basis.to_json_obj())
    print(f"ok: wrote {basis.coeffs.shape[0]} orthonormal polynomials to {args.out}")
    return 0


def cmd_freeproduct(args) -> int:
    if args.depth < 0:
        raise CliFailure("error: --depth must be >= 0", 2)
    try:
        recurrences = fp.parse_recurrence_spec(args.spec, max(args.depth, 1))
        family = fp.build(recurrences, args.depth)
    except (ValueError, KeyError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        raise CliFailure(f"error: bad recurrence spec {args.spec!r}: {exc}", 2) from exc
    labels = ",".join(rec.label for rec in recurrences)
    _require_admissible(family, f"depth-{args.depth} family for {labels}")
    basis = None
    if args.basis is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            basis = fp.product_basis(recurrences, args.depth)
        if not np.isfinite(basis.coeffs).all():
            raise CliFailure(
                f"FAIL: depth-{args.depth} product basis for {labels} has a non-finite "
                f"coefficient",
                1,
            )
    jsonio.save_family(args.out, family)
    if basis is not None:
        try:
            jsonio.write_json(args.basis, basis.to_json_obj())
        except OSError:
            os.unlink(args.out)
            raise
    print(f"ok: wrote depth-{args.depth} family for {labels} to {args.out}")
    if basis is not None:
        print(f"ok: wrote {len(basis.coeffs)} product polynomials to {args.basis}")
    return 0


def cmd_paths(args) -> int:
    try:
        letters = tuple(int(tok) for tok in args.word.split(",") if tok.strip())
    except ValueError as exc:
        raise CliFailure(f"error: cannot parse word {args.word!r}: {exc}", 2) from exc
    if not letters:
        raise CliFailure("error: word must be nonempty", 2)
    family = None if args.family is None else _load(jsonio.load_family, args.family)
    try:
        word = Word(letters, max(max(letters), 1) if family is None else family.alphabet)
    except ValueError as exc:
        raise CliFailure(f"error: {exc}", 2) from exc
    count = motzkin_number(len(word))
    if args.count_only:
        print(count)
        return 0
    if len(word) > DEFAULT_PATH_CAP:
        raise CliFailure(
            f"error: path lists are written for words of length <= {DEFAULT_PATH_CAP} "
            f"({count} paths at length {len(word)}); use --count-only for the count",
            2,
        )
    if family is not None and len(word) // 2 > family.depth:
        raise CliFailure(
            f"error: length-{len(word)} word climbs above family depth {family.depth}", 2
        )
    paths = enumerate_paths(word)
    obj = {
        "word": list(word.letters),
        "count": count,
        "paths": [p.to_json_obj() for p in paths],
    }
    if family is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            weights = [path_weight(family, p) for p in paths]
        for i, (path, weight) in enumerate(zip(paths, weights), start=1):
            if not math.isfinite(weight):
                steps = ",".join(STEP_KINDS[s] for s in path.profile)
                raise CliFailure(
                    f"FAIL: path {i} of {count} ({steps}) has weight {weight} against "
                    f"{args.family}, not a finite number",
                    1,
                )
        total = sum(weights)
        if not math.isfinite(total):
            raise CliFailure(f"FAIL: weight sum over {count} paths overflows to {total}", 1)
        obj["weights"] = weights
        print(f"ok: weight sum {total:.15g} over {count} paths")
    if args.out is not None:
        jsonio.write_json(args.out, obj)
        print(f"ok: wrote {count} paths to {args.out}")
    else:
        json.dump(obj, sys.stdout, indent=1)
        print()
    return 0


def cmd_verify(args) -> int:
    if (args.family is None) == (args.moments is None):
        raise CliFailure("error: verify needs exactly one of --family / --moments", 2)
    failures = 0
    if args.family is not None:
        family = _load(jsonio.load_family, args.family)
        report = validate(family)
        if report.ok:
            print(
                f"ok: family {args.family} admissible "
                f"(N={family.alphabet}, depth={family.depth})"
            )
        else:
            for violation in report.violations:
                print(f"FAIL: family {args.family}: {violation}")
            failures += len(report.violations)
    else:
        phi = _load(jsonio.load_moments, args.moments)
        depth = args.depth if args.depth is not None else phi.max_degree
        _check_depth("--depth", depth, phi.max_degree, "table degree")
        print(f"ok: moment table unital and reversal-symmetric (loaded {args.moments})")
        # K(aw, t) and K(w, I(a)t) both read s_{I(w)at}: no table can break it
        print("ok: kernel shift invariance K(aw,t) = K(w,I(a)t) holds by construction")
        report = phi.gram(depth)
        if report.positive:
            print(
                f"ok: strictly positive at degree {depth} "
                f"(min Gram pivot {report.min_pivot:.6g})"
            )
        else:
            print(
                f"FAIL: not strictly positive at degree {depth} "
                f"(Gram pivot {report.pivots[-1]:.6g} <= {POSITIVITY_TOL:g})"
            )
            failures += 1
    return 1 if failures else 0


COMMANDS = {
    "moments": cmd_moments,
    "jacobi": cmd_jacobi,
    "orthonormalize": cmd_orthonormalize,
    "freeproduct": cmd_freeproduct,
    "paths": cmd_paths,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return COMMANDS[args.command](args)
    except CliFailure as exc:
        stream = sys.stderr if exc.code == 2 else sys.stdout
        print(str(exc), file=stream)
        return exc.code
    except OSError as exc:  # an input that cannot be read or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
