"""Batch command-line front end over JSON files.

Subcommands: moments, jacobi, orthonormalize, freeproduct, paths, verify.
Exit codes: 0 success, 1 validation or numerical failure, 2 usage or input
format error.  Report lines are prefixed "ok:" or "FAIL:" for scripting.  A check
raises where its rule lives; ``main`` alone prints a refusal and picks its exit code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import freeproduct as fp
from . import jsonio
from .functional import NotStrictlyPositiveError, require_positive
from .jacobi import favard_moments, validate
from .orthopoly import ResidualError, extract_recurrence, orthonormalize
from .paths import DEFAULT_PATH_CAP, STEP_KINDS, enumerate_paths, motzkin_number
from .paths import path_weight
from .words import SizeError, Word, _check_sizes

# Peak bytes per entry, as peak RSS on hermite,legendre: a family built and written, 222 MB
# for 4,194,302 block entries at depth 10; the dense words x words matrix of --basis, 36 MiB
# more for 2047^2 at depth 10; moments, family included, 504 MiB for 1,048,575 at degree 9.
FAMILY_BYTES_PER_ENTRY, BASIS_BYTES_PER_ENTRY, MOMENT_BYTES_PER_ENTRY = 50, 9, 500
# Per byte of a file read: 268 MB to read the 42 MB depth-10 family (6.4), rounded up.
READ_BYTES_PER_BYTE = 7


class UsageError(Exception):
    """A request the command cannot serve: printed as an "error:" line on stderr, exit 2."""


class Refused(Exception):
    """Input that fails a check: each argument is printed as a "FAIL:" line on stdout,
    exit 1."""


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


def _check_outputs(args) -> None:
    """Refuse an --out or --basis that names, by real path, another file the command
    reads or writes: writing it would lose that file or the other output."""
    options = ("--out", "--basis", "--family", "--moments")
    files = [(opt, getattr(args, opt[2:], None)) for opt in options]
    tokens = [tok.strip() for tok in getattr(args, "spec", "").split(",")]
    files += [("--spec", tok[len("custom:") :]) for tok in tokens if tok.startswith("custom:")]
    real = [(opt, os.path.realpath(path), path) for opt, path in files if path is not None]
    for i, (out, where, path) in enumerate(real):
        for other, there, _ in real[i + 1 :]:
            if out in options[:2] and there == where:
                raise UsageError(f"{out} and {other} name the same file {path}")


def _log10_words(n: int, lo: int, hi: int) -> float:
    """log10 of N^lo + .. + N^hi, the number of words of lengths lo..hi, without forming it."""
    if n == 1:
        return math.log10(hi - lo + 1)
    return hi * math.log10(n) + math.log10((1 - n ** (lo - hi - 1)) / (1 - 1 / n))


def _check_memory(what: str, *terms: tuple[int, float]) -> None:
    """Refuse ``what`` when its peak, summed over ``terms`` of (bytes per entry, log10 of the
    entries), exceeds physical memory, or the RLIMIT_AS soft limit when that is lower."""
    import resource  # POSIX only, so imported where it is used

    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    usable = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    usable = usable if soft == resource.RLIM_INFINITY else min(usable, soft)
    logs = [math.log10(size) + digits for size, digits in terms]
    digits = max(logs) + math.log10(sum(10 ** (x - max(logs)) for x in logs))
    if digits > math.log10(usable):
        raise UsageError(
            f"{what} needs about {10 ** (digits % 1):.1f}e{math.floor(digits):+03d} bytes; "
            f"this process may use {usable:.2g}"
        )


def _read(load, path: str):
    """``load(path)``, once the file's size shows that parsing it fits in memory."""
    _check_memory(f"reading {path}", (READ_BYTES_PER_BYTE, math.log10(os.stat(path).st_size or 1)))
    return load(path)


def _require_admissible(family, name: str):
    report = validate(family)
    if not report.ok:
        raise Refused(
            f"{name}: {report.violations[0]}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else "")
        )


def cmd_moments(args) -> None:
    family = _read(jsonio.load_family, args.family)
    _check_sizes(family.alphabet, degree=args.max_degree)
    family._require_levels(args.max_degree, f"moments of degree {args.max_degree}")
    top = 2 * args.max_degree + 1
    _check_memory(f"a degree-{args.max_degree} moment table over N={family.alphabet} letters",
                  (MOMENT_BYTES_PER_ENTRY, _log10_words(family.alphabet, 0, top)))
    _require_admissible(family, f"family {args.family}")
    try:
        phi = favard_moments(family, args.max_degree)
    except SizeError:  # a size or reach refusal keeps its exit 2
        raise
    except ValueError as exc:  # float64 overflow, or a Gram pivot at or below tolerance
        raise Refused(str(exc)) from exc
    jsonio.save_moments(args.out, phi)
    print(
        f"ok: wrote {phi.values.size} moments of degree <= {args.max_degree} "
        f"(words up to length {phi.word_bound}) to {args.out}"
    )


def cmd_jacobi(args) -> None:
    phi = _read(jsonio.load_moments, args.moments)
    # before orthonormalize: extract_recurrence takes this rule after the factoring
    phi._require_words(2 * args.depth + 1, f"extracting level-{args.depth} blocks")
    family = extract_recurrence(orthonormalize(phi, args.depth), phi)
    jsonio.save_family(args.out, family)
    print(f"ok: recovered depth-{args.depth} family from {args.moments} to {args.out}")


def cmd_orthonormalize(args) -> None:
    phi = _read(jsonio.load_moments, args.moments)
    basis = orthonormalize(phi, args.depth)
    jsonio.write_json(args.out, basis.to_json_obj())
    print(f"ok: wrote {basis.coeffs.shape[0]} orthonormal polynomials to {args.out}")


def cmd_freeproduct(args) -> None:
    n = len(args.spec.split(","))
    _check_sizes(n, depth=args.depth)
    terms = [(FAMILY_BYTES_PER_ENTRY, _log10_words(n, 1, 2 * args.depth + 1))]
    if args.basis is not None:  # the product basis, held while the family is written
        terms.append((BASIS_BYTES_PER_ENTRY, 2 * _log10_words(n, 0, args.depth)))
    _check_memory(f"a depth-{args.depth} family over N={n} letters", *terms)
    try:
        recurrences = fp.parse_recurrence_spec(args.spec, max(args.depth, 1))
        family = fp.build(recurrences, args.depth)
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad recurrence spec {args.spec!r}: {exc}") from exc
    labels = ",".join(rec.label for rec in recurrences)
    _require_admissible(family, f"depth-{args.depth} family for {labels}")
    basis = None
    if args.basis is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            basis = fp.product_basis(recurrences, args.depth)
        if not np.isfinite(basis.coeffs).all():
            raise Refused(
                f"depth-{args.depth} product basis for {labels} has a non-finite coefficient"
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


def cmd_paths(args) -> None:
    if args.count_only and args.out is not None:
        raise UsageError("--out is not used with --count-only")
    try:
        letters = tuple(int(tok) for tok in args.word.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"cannot parse word {args.word!r}: {exc}") from exc
    if not letters:
        raise UsageError("word must be nonempty")
    family = None if args.family is None else _read(jsonio.load_family, args.family)
    word = Word(letters, max(max(letters), 1) if family is None else family.alphabet)
    # M_n < 3^n has at most floor(n log10 3) + 1 digits; 0 means no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(word) * math.log10(3) >= limit:
        raise UsageError(
            f"the path count of a length-{len(word)} word may exceed Python's "
            f"{limit}-digit limit on printing an integer"
        )
    count = motzkin_number(len(word))
    if args.count_only:
        print(count)
        return
    if len(word) > DEFAULT_PATH_CAP:
        raise UsageError(
            f"path lists are written for words of length <= {DEFAULT_PATH_CAP} "
            f"({count} paths at length {len(word)}); use --count-only for the count"
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
                raise Refused(
                    f"path {i} of {count} ({steps}) has weight {weight} against "
                    f"{args.family}, not a finite number"
                )
        total = sum(weights)
        if not math.isfinite(total):
            raise Refused(f"weight sum over {count} paths overflows to {total}")
        obj["weights"] = weights
        print(f"ok: weight sum {total:.15g} over {count} paths")
    if args.out is not None:
        jsonio.write_json(args.out, obj)
        print(f"ok: wrote {count} paths to {args.out}")
    else:
        jsonio.dump(obj, sys.stdout)


def cmd_verify(args) -> None:
    if (args.family is None) == (args.moments is None):
        raise UsageError("verify needs exactly one of --family / --moments")
    if args.family is not None and args.depth is not None:
        raise UsageError("--depth is not used with --family")
    if args.family is not None:
        family = _read(jsonio.load_family, args.family)
        report = validate(family)
        if not report.ok:
            raise Refused(*(f"family {args.family}: {v}" for v in report.violations))
        print(f"ok: family {args.family} admissible (N={family.alphabet}, depth={family.depth})")
    else:
        phi = _read(jsonio.load_moments, args.moments)
        depth = args.depth if args.depth is not None else phi.max_degree
        report = phi.gram(depth)
        print(f"ok: moment table unital and reversal-symmetric (loaded {args.moments})")
        # K(aw, t) and K(w, I(a)t) both read s_{I(w)at}: no table can break it
        print("ok: kernel shift invariance K(aw,t) = K(w,I(a)t) holds by construction")
        if not report.positive:
            require_positive(report.pivots, f"degree {depth}")
        print(f"ok: strictly positive at degree {depth} (min Gram pivot {min(report.pivots):.6g})")


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
        _check_outputs(args)
        COMMANDS[args.command](args)
    except (Refused, NotStrictlyPositiveError, ResidualError) as exc:
        for reason in exc.args if isinstance(exc, Refused) else (exc,):
            print(f"FAIL: {reason}")
        return 1
    except (UsageError, SizeError, OSError, jsonio.SchemaError) as exc:  # usage, size or file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
