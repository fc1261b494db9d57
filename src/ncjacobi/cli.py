"""Batch command-line front end over JSON files.

Subcommands: moments, jacobi, orthonormalize, freeproduct, paths, verify.
Exit codes: 0 success, 1 validation or numerical failure, 2 usage or input
format error.  Report lines are prefixed "ok:" or "FAIL:" for scripting.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import freeproduct as fp
from . import jsonio
from .functional import DEFAULT_POSITIVITY_TOL, NotStrictlyPositiveError
from .jacobi import DEFAULT_VALIDATE_TOL, favard_moments, validate
from .orthopoly import ResidualError, extract_recurrence, orthonormalize
from .paths import enumerate_paths, motzkin_number, path_weight
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
    p.add_argument("--tolerance", type=float, default=None)

    p = sub.add_parser("jacobi", help="moment table JSON -> family JSON")
    p.add_argument("--moments", required=True, help="input moment file")
    p.add_argument("--depth", type=int, required=True, help="levels to recover")
    p.add_argument("--out", required=True, help="output family file")
    p.add_argument("--tolerance", type=float, default=None)

    p = sub.add_parser("orthonormalize", help="moment table JSON -> basis JSON")
    p.add_argument("--moments", required=True, help="input moment file")
    p.add_argument("--depth", type=int, required=True, help="orthonormalization depth")
    p.add_argument("--out", required=True, help="output basis file")
    p.add_argument("--tolerance", type=float, default=None)

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
    p.add_argument("--alphabet", type=int, default=None, help="default: largest letter")
    p.add_argument("--count-only", action="store_true", help="print the count only")
    p.add_argument(
        "--family", default=None, help="family file: also report per-path weights"
    )
    p.add_argument("--out", default=None, help="optional JSON output file")

    p = sub.add_parser("verify", help="validation / positivity report")
    p.add_argument("--family", default=None, help="family file to validate")
    p.add_argument("--moments", default=None, help="moment file to validate")
    p.add_argument("--depth", type=int, default=None, help="positivity depth (moments)")
    p.add_argument("--tolerance", type=float, default=None)

    return parser


def _load(loader, path: str):
    """Run a jsonio loader; malformed input exits 2 (unreadable input too, in main)."""
    try:
        return loader(path)
    except json.JSONDecodeError as exc:
        raise CliFailure(f"error: {path} is not valid JSON: {exc}", 2) from exc
    except jsonio.SchemaError as exc:
        raise CliFailure(f"error: {exc}", 2) from exc


def _tol(args, default: float = DEFAULT_POSITIVITY_TOL) -> float:
    return args.tolerance if args.tolerance is not None else default


def _require_admissible(family, args):
    report = validate(family, tol=_tol(args, DEFAULT_VALIDATE_TOL))
    if not report.ok:
        raise CliFailure(
            f"FAIL: family {args.family}: {report.violations[0]}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else ""),
            1,
        )


def cmd_moments(args) -> int:
    family = _load(jsonio.load_family, args.family)
    if args.max_degree < 0:
        raise CliFailure("error: --max-degree must be >= 0", 2)
    _require_admissible(family, args)
    tol = _tol(args)
    try:
        phi = favard_moments(family, args.max_degree, tol=tol)
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
    if args.depth < 0:
        raise CliFailure("error: --depth must be >= 0", 2)
    try:
        basis = orthonormalize(phi, args.depth, tol=_tol(args))
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
    if args.depth < 0:
        raise CliFailure("error: --depth must be >= 0", 2)
    if args.depth > phi.max_degree:
        raise CliFailure(
            f"error: depth {args.depth} exceeds table degree {phi.max_degree}", 2
        )
    try:
        basis = orthonormalize(phi, args.depth, tol=_tol(args))
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
    jsonio.save_family(args.out, family)
    labels = ",".join(rec.label for rec in recurrences)
    print(f"ok: wrote depth-{args.depth} family for {labels} to {args.out}")
    if args.basis is not None:
        basis = fp.product_basis(recurrences, args.depth)
        jsonio.write_json(args.basis, basis.to_json_obj())
        print(f"ok: wrote {len(basis.coeffs)} product polynomials to {args.basis}")
    return 0


def cmd_paths(args) -> int:
    try:
        letters = tuple(int(tok) for tok in args.word.split(",") if tok.strip())
    except ValueError as exc:
        raise CliFailure(f"error: cannot parse word {args.word!r}: {exc}", 2) from exc
    if not letters:
        raise CliFailure("error: word must be nonempty", 2)
    alphabet = args.alphabet if args.alphabet is not None else max(letters)
    try:
        word = Word(letters, alphabet)
    except ValueError as exc:
        raise CliFailure(f"error: {exc}", 2) from exc
    count = motzkin_number(len(word))
    if args.count_only:
        print(count)
        return 0
    try:
        paths = enumerate_paths(word)
    except ValueError as exc:
        raise CliFailure(f"error: {exc}", 2) from exc
    obj = {
        "word": list(word.letters),
        "count": count,
        "paths": [p.to_json_obj() for p in paths],
    }
    if args.family is not None:
        family = _load(jsonio.load_family, args.family)
        try:
            weights = [path_weight(family, p) for p in paths]
        except (ValueError, KeyError) as exc:
            raise CliFailure(f"FAIL: cannot weigh paths against {args.family}: {exc}", 1) from exc
        obj["weights"] = weights
        print(f"ok: weight sum {sum(weights):.15g} over {count} paths")
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
        report = validate(family, tol=_tol(args, DEFAULT_VALIDATE_TOL))
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
        print(f"ok: moment table unital and reversal-symmetric (loaded {args.moments})")
        # K(aw, t) and K(w, I(a)t) both read s_{I(w)at}: no table can break it
        print("ok: kernel shift invariance K(aw,t) = K(w,I(a)t) holds by construction")
        depth = args.depth if args.depth is not None else phi.max_degree
        if depth > phi.max_degree:
            raise CliFailure(
                f"error: --depth {depth} exceeds table degree {phi.max_degree}", 2
            )
        tol = _tol(args)
        report = phi.gram(depth, tol=tol)
        if report.positive:
            print(
                f"ok: strictly positive at degree {depth} "
                f"(min Gram pivot {report.min_pivot:.6g})"
            )
        else:
            print(
                f"FAIL: not strictly positive at degree {depth} "
                f"(Gram pivot {report.pivots[-1]:.6g} <= {tol:g})"
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
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and tolerance <= 0:
        print("error: --tolerance must be > 0", file=sys.stderr)
        return 2
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
