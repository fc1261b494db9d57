"""One workload process of the benchmark.

``run.py`` starts this file once per setup sample and once for the timed
run.  Its set-up (interpreter start, ``import ncjacobi``, loading the
generated inputs and building the first operation's objects, or for
``cli_pipeline`` writing the input files and one warm-up command) ends at
the ``ready`` timestamp it reports.  The timed phase then runs whole rounds
of the workload's operations until ``--seconds`` have passed; every
operation gets fresh input objects, built untimed, and every output is
checked untimed against the expected values that ``run.py`` computed with
the reference module.  Between operations, untimed, the garbage collector
runs and the surviving objects are frozen (``gc.freeze``), so that each
operation's collections walk only its own objects, not the benchmark's
inputs, expected values and check caches.  The last line of standard
output is a JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import pickle
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

COMMAND_TIMEOUT_S = 120


class CheckFailure(Exception):
    """An output of the program disagrees with the reference."""


def _load(path: Path):
    # written by run.py in this benchmark's own work directory
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- library workloads ----------------------------------------------------------


class ForwardMoments:
    """One operation: ``favard_moments(family, d)`` on a fresh family."""

    def __init__(self, problems, nj):
        self.problems = problems
        self.nj = nj
        self._words = {}  # Word objects of each table, built once for the checks

    def build(self, p):
        A = {key: a.copy() for key, a in p["A"].items()}
        B = {key: b.copy() for key, b in p["B"].items()}
        return self.nj.AdmissibleFamily(p["N"], p["d"], A, B)

    def run(self, p, family):
        return self.nj.favard_moments(family, p["d"])

    def entries(self, p) -> int:
        return len(p["words"])

    def check(self, p, phi, expected):
        import numpy as np
        import reference as ref

        nj, N = self.nj, p["N"]
        if p["label"] not in self._words:
            self._words[p["label"]] = [nj.Word(w, N) for w in p["words"]]
        got = np.array([phi.moment(w) for w in self._words[p["label"]]])
        if phi.word_bound != 2 * p["d"] + 1:
            raise CheckFailure(f"{p['label']}: table stops at length {phi.word_bound}")
        if got[0] != 1.0:
            raise CheckFailure(f"{p['label']}: s_empty = {got[0]!r}")
        if not np.array_equal(got, got[ref.reversal_index(N, 2 * p["d"] + 1)]):
            raise CheckFailure(f"{p['label']}: table not exactly reversal-symmetric")
        err = ref.moment_error(got, expected["table"])
        if not err <= expected["tol"]:
            raise CheckFailure(f"{p['label']}: moment error {err:.3g} > {expected['tol']:.3g}")
        try:
            np.linalg.cholesky(ref.gram(got, N, p["d"]))
        except np.linalg.LinAlgError as exc:
            raise CheckFailure(f"{p['label']}: numpy Cholesky of the Gram matrix: {exc}")
        return err


class InverseRecovery:
    """One operation: ``jacobi_from_moments``, ``orthonormalize`` and, where it
    is part of the problem, ``extract_recurrence`` on a fresh moment table."""

    def __init__(self, problems, nj):
        self.problems = problems
        self.nj = nj

    def build(self, p):
        nj, N = self.nj, p["N"]
        table = {nj.Word(w, N): float(v) for w, v in zip(p["words"], p["values"])}
        return nj.MomentFunctional(N, p["d"], table)

    def run(self, p, phi):
        nj = self.nj
        family = nj.jacobi_from_moments(phi, p["d"])
        basis = nj.orthonormalize(phi, p["d"])
        extracted = nj.extract_recurrence(basis, phi) if p["extract"] else None
        return family, basis, extracted

    def entries(self, p) -> int:
        return len(p["words"])

    def check(self, p, out, expected):
        import numpy as np
        import reference as ref

        family, basis, extracted = out
        label, N, d = p["label"], p["N"], p["d"]
        bound = expected["cond"] * ref.EPS
        for n in range(1, d + 1):
            a = np.hstack([family.A[(n, k)] for k in range(1, N + 1)])
            if np.any(np.tril(a, -1) != 0.0) or np.any(np.diag(a) <= 0.0):
                raise CheckFailure(f"{label}: A_{n} not upper triangular with positive diagonal")
        for (n, k), b in family.B.items():
            if not np.array_equal(b, b.T):
                raise CheckFailure(f"{label}: B[{n},{k}] not symmetric")
        err = ref.block_error(expected["family"], family.A, family.B, d)
        if not err <= bound:
            raise CheckFailure(f"{label}: recovered blocks off by {err:.3g} > {bound:.3g}")
        c = basis.coeffs
        ortho = float(np.max(np.abs(c @ expected["gram"] @ c.T - np.eye(len(c)))))
        if not ortho <= bound:
            raise CheckFailure(f"{label}: basis orthonormality residual {ortho:.3g} > {bound:.3g}")
        if extracted is not None:
            ext = ref.block_error(expected["family"], extracted.A, extracted.B, d)
            if not ext <= bound:
                raise CheckFailure(f"{label}: extracted blocks off by {ext:.3g} > {bound:.3g}")
            err = max(err, ext)
        return err


# -- command-line workload ----------------------------------------------------------


class CliPipeline:
    """One operation: one ``python -m ncjacobi`` command in a child process."""

    def __init__(self, problems, workdir: Path, traced: bool):
        self.problems = problems
        self.workdir = workdir
        self.env = dict(os.environ)
        if traced:
            import ncjacobi.cli

            self.cli = ncjacobi.cli

    def command(self, argv):
        return [sys.executable, "-m", "ncjacobi", *argv]

    def build(self, p):
        return [arg.replace("{work}", str(self.workdir)) for arg in p["argv"]]

    def run(self, p, argv):
        proc = subprocess.run(
            self.command(argv), env=self.env, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{p['label']}: exit {proc.returncode}: {proc.stdout[-300:]}{proc.stderr[-300:]}"
            )
        return proc.stdout

    def in_process(self, argv) -> None:
        """Run the command again through ``ncjacobi.cli.main`` under the tracer."""
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"in-process {argv[0]}: exit {code}: {sink.getvalue()[-300:]}")

    def entries(self, p) -> int:
        return p["entries"]

    def check(self, p, stdout, expected):
        import reference as ref

        lines = stdout.splitlines()
        if not any(line.startswith("ok:") for line in lines) or any(
            line.startswith("FAIL:") for line in lines
        ):
            raise CheckFailure(f"{p['label']}: report lines {lines[:4]}")
        kind = expected["kind"]
        path = expected.get("path", "").replace("{work}", str(self.workdir))
        label = p["label"]
        if kind == "moments":
            got = _moment_file(path, expected["N"], len(expected["table"]))
            err = ref.moment_error(got, expected["table"])
            if not err <= expected["tol"]:
                raise CheckFailure(f"{label}: moment file off by {err:.3g}")
            if expected.get("pairings") is not None and any(got != expected["pairings"]):
                raise CheckFailure(f"{label}: semicircle moments differ from pairing counts")
            return err
        if kind == "family":
            A, B = _family_file(path)
            err = ref.block_error(expected["family"], A, B, expected["depth"])
            if not err <= expected["tol"]:
                raise CheckFailure(f"{label}: family blocks off by {err:.3g} > {expected['tol']:.3g}")
            return err
        if kind == "basis":
            import numpy as np

            c = _basis_file(path, expected["N"])
            resid = float(np.max(np.abs(c @ expected["gram"] @ c.T - np.eye(len(c)))))
            if not resid <= expected["tol"]:
                raise CheckFailure(f"{label}: basis orthonormality residual {resid:.3g}")
            return 0.0
        if kind == "paths":
            words = lines[0].split()
            total, count = float(words[3]), int(words[5])
            err = abs(total - expected["moment"]) / max(1.0, abs(expected["moment"]))
            if count != expected["count"] or not err <= expected["tol"]:
                raise CheckFailure(f"{label}: {lines[0]!r}, expected {expected['moment']!r}")
            if expected.get("pairings") is not None and total != expected["pairings"]:
                raise CheckFailure(f"{label}: weight sum {total!r} is not the pairing count")
            return err
        return 0.0


def _moment_file(path, N, size):
    """Moments by graded rank; a missing word stays NaN and fails the check."""
    import numpy as np
    import reference as ref

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    got = np.full(size, np.nan)
    for entry in obj["moments"]:
        rank = ref.graded_rank(entry["word"], N)
        if rank >= size:
            raise CheckFailure(f"{path}: word {entry['word']} beyond the table")
        got[rank] = entry["value"]
    return got


def _family_file(path):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    blocks = ({}, {})
    for side, out in zip(("A", "B"), blocks):
        for entry in obj[side]:
            out[(entry["n"], entry["k"])] = np.array(entry["rows"], dtype=float)
    return blocks


def _basis_file(path, N):
    import numpy as np
    import reference as ref

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    c = np.zeros((len(obj["basis"]), len(obj["basis"])))
    for entry in obj["basis"]:
        row = ref.graded_rank(entry["word"], N)
        for term in entry["terms"]:
            c[row, ref.graded_rank(term["word"], N)] = term["coeff"]
    return c


# -- driver -------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--data", required=True, help="work directory written by run.py")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="stop once set-up is done")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    data = Path(args.data)
    traced = bool(args.trace)
    tracer = None
    if args.workload == "cli_pipeline":
        inputs = _load(data / "inputs.pkl")
        for name, text in inputs["files"].items():
            (data / name).write_text(text, encoding="utf-8")
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        workload = CliPipeline(inputs["problems"], data, traced)
        workload.run({"label": "warm-up"}, workload.build(inputs["warmup"]))
    else:
        import ncjacobi as nj

        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        inputs = _load(data / "inputs.pkl")
        cls = ForwardMoments if args.workload == "forward_moments" else InverseRecovery
        workload = cls(inputs["problems"], nj)
    problems = workload.problems
    objects = workload.build(problems[0])
    ready = perf_counter()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    expected = _load(data / "expected.pkl")
    cli = isinstance(workload, CliPipeline)
    gc.collect()
    gc.freeze()
    times, failures = [], []  # times: (problem index, seconds)
    errors = [0.0] * len(problems)  # worst error per problem over all rounds
    correct = True
    attempted = rounds = 0
    start = perf_counter()
    while True:
        for i, p in enumerate(problems):
            if objects is None:
                objects = workload.build(p)
            attempted += 1
            if tracer is not None and not cli:
                tracer.active = True
            t0 = perf_counter()
            try:
                out = workload.run(p, objects)
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"{p['label']}: {type(exc).__name__}: {exc}")
                out = None
            dt = perf_counter() - t0
            if tracer is not None and not cli:
                tracer.active = False
            if out is not None:
                times.append((i, dt))
                if tracer is not None and cli:
                    tracer.active = True
                    workload.in_process(objects)
                    tracer.active = False
                try:
                    errors[i] = max(errors[i], workload.check(p, out, expected[i]))
                except CheckFailure as exc:
                    correct = False
                    errors[i] = max(errors[i], 1.0)
                    print(f"check failed: {exc}", file=sys.stderr)
            objects = out = None
            gc.collect()
            gc.freeze()
        rounds += 1
        if perf_counter() - start >= args.seconds:
            break

    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": len(failures),
        "rounds": rounds,
        "times": times,
        "errors": errors,
        "correct": correct,
        "peak_rss_mb": _peak_rss_mb(who),
    }
    for message in failures[: len(problems)]:
        print(f"operation failed: {message}", file=sys.stderr)
    if tracer is not None:
        summary = tracer.summary()
        layers = {
            key: value if key.endswith("_max") else value / rounds
            for key, value in summary.items()
        }
        layers["entries"] = sum(workload.entries(p) for p in problems)
        if cli:
            # child-process wall time not spent inside ncjacobi.cli.main
            main_s = summary.get("cli.main.total_s", 0.0)
            layers["cli.process_s"] = (sum(dt for _, dt in times) - main_s) / rounds
        result["layers"] = layers
        tracer.write(str(data / "spans.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
