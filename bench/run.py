"""Benchmark of ncjacobi: one workload per run, timed end to end or traced.

Usage (from the root of the repository)::

    python3 bench/run.py --workload forward_moments --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15
    python3 bench/run.py --workload all --smoke

Workloads: ``cli_pipeline``, ``forward_moments``, ``inverse_recovery``.  This
process generates every input from ``--seed`` with the numpy reference
module, computes the expected outputs, and starts ``worker.py`` processes
that import ``ncjacobi`` from ``src/``.  With ``--trace 0`` it starts a few
set-up samples and one timed run and prints the end-to-end metrics; with
``--trace 1`` it starts one traced run and prints the per-module metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

# pinned before numpy loads: nproc is 2 and every workload is one process
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402

WORKLOADS = ("cli_pipeline", "forward_moments", "inverse_recovery")
SETUP_SAMPLES = 5  # set-up is sampled this many times per run, the last being the timed run
IMPORT_SAMPLES = 3
RUN_TIMEOUT_S = 170
MOMENT_TOL = 1e-9  # relative to max(1, |s_w|); today's worst is about 2e-12

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_gmean", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_digits", "digits"),
]

PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.process_s", "s"),
    ("cli.cmd_moments.self_s", "s"),
    ("cli.cmd_jacobi.self_s", "s"),
    ("cli.cmd_orthonormalize.self_s", "s"),
    ("cli.cmd_verify.self_s", "s"),
    ("cli.cmd_freeproduct.self_s", "s"),
    ("cli.cmd_paths.self_s", "s"),
    ("jsonio.load.calls", "count"),
    ("jsonio.load.self_s", "s"),
    ("jsonio.save.calls", "count"),
    ("jsonio.save.self_s", "s"),
    ("jsonio.bytes_read", "bytes"),
    ("jsonio.bytes_written", "bytes"),
    ("words.enumerate_words.calls", "count"),
    ("words.enumerate_words.self_s", "s"),
    ("words.enumerate_words.words", "count"),
    ("functional.table_build.calls", "count"),
    ("functional.table_build.self_s", "s"),
    ("functional.moment.calls", "count"),
    ("functional.moment.per_entry", "calls/entry"),
    ("functional.gram.calls", "count"),
    ("functional.gram.self_s", "s"),
    ("functional.gram.order_max", "count"),
    ("functional.upper_cholesky.calls", "count"),
    ("functional.upper_cholesky.self_s", "s"),
    ("functional.kernel_table.self_s", "s"),
    ("functional.hankel_check.self_s", "s"),
    ("functional.inner.calls", "count"),
    ("functional.inner.self_s", "s"),
    ("jacobi.favard_moments.self_s", "s"),
    ("jacobi.operator_moment.calls", "count"),
    ("jacobi.operator_moment.self_s", "s"),
    ("jacobi.operator_moment.per_moment", "calls/entry"),
    ("jacobi.validate.self_s", "s"),
    ("paths.moments_from_paths.calls", "count"),
    ("paths.moments_from_paths.self_s", "s"),
    ("paths.enumerate_paths.calls", "count"),
    ("paths.enumerate_paths.paths", "count"),
    ("paths.path_weight.calls", "count"),
    ("paths.path_weight.self_s", "s"),
    ("paths.jacobi_from_moments.self_s", "s"),
    ("orthopoly.orthonormalize.self_s", "s"),
    ("orthopoly.extract_recurrence.self_s", "s"),
    ("ncpoly.mul.calls", "count"),
    ("ncpoly.mul.self_s", "s"),
    ("ncpoly.add.calls", "count"),
    ("ncpoly.add.self_s", "s"),
    ("freeproduct.build.self_s", "s"),
]

# -- inputs -------------------------------------------------------------------------

FORWARD_DENSE = [(2, 3), (2, 4), (2, 5), (3, 3)]
INVERSE_DENSE = [(3, 2), (2, 3), (2, 4), (2, 5), (3, 3)]
INVERSE_FREE = {(2, 4): "hermite,legendre", (3, 3): "chebyshev_t,laguerre(0.5),hermite"}
# dense (3,4) fails favard_moments' own pivot test on some seeds, so the
# forward workload reaches (3,4) through a free product instead
FORWARD_FREE = {**INVERSE_FREE, (3, 4): "chebyshev_t,laguerre(0.5),hermite"}
CLI_SPECS = ["hermite,legendre", "laguerre(0.5),chebyshev_t", "custom:semi.json,custom:semi.json"]
CLI_DEPTH = 3  # table degree and recovery depth of every chain
CLI_FAMILY_DEPTH = 4  # the 8-letter path word climbs to height 4
PATH_WORD_LENGTH = 8
# smoke mode keeps the smallest dense problem and the first free product, or
# the semicircle chain
SMOKE = {
    "forward_moments": lambda p: p["label"] in ("dense(2,3)", "free(2,4)"),
    "inverse_recovery": lambda p: p["label"] in ("dense(2,3)", "free(2,4)"),
    "cli_pipeline": lambda p: p["chain"] == "free2",
}


def extract_ok(kind: str, N: int, d: int) -> bool:
    """Where ``extract_recurrence`` passes its own residual test today."""
    return kind == "free" or (N == 2 and d <= 3) or (N == 3 and d <= 2)


def parse_spec(spec: str, length: int):
    recs = []
    for token in spec.split(","):
        m = re.fullmatch(r"([a-z_]+)(?:\(([^()]*)\))?", token)
        if token.startswith("custom:"):
            recs.append(ref.recurrence("semicircle", length))
        elif m.group(2) is not None:
            recs.append(ref.recurrence(m.group(1), length, float(m.group(2))))
        else:
            recs.append(ref.recurrence(m.group(1), length))
    return recs


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _library_problems(workload: str, seed: int):
    """Dense families from the seed, then the two free products."""
    rng = _rng(seed, workload)
    forward = workload == "forward_moments"
    out = [("dense", N, d, ref.dense_family(rng, N, d))
           for N, d in (FORWARD_DENSE if forward else INVERSE_DENSE)]
    for (N, d), spec in (FORWARD_FREE if forward else INVERSE_FREE).items():
        out.append(("free", N, d, ref.free_family(parse_spec(spec, d + 1), d)))
    return out


def forward_inputs(seed: int):
    problems, expected = [], []
    for kind, N, d, fam in _library_problems("forward_moments", seed):
        bound = 2 * d + 1
        problems.append({
            "label": f"{kind}({N},{d})", "N": N, "d": d, "A": fam.A, "B": fam.B,
            "words": ref.words_up_to(N, bound),
        })
        expected.append({"table": ref.moment_table(fam, bound), "tol": MOMENT_TOL})
    return problems, expected


def inverse_inputs(seed: int):
    problems, expected = [], []
    for kind, N, d, fam in _library_problems("inverse_recovery", seed):
        table = ref.moment_table(fam, 2 * d + 1)
        gram = ref.gram(table, N, d)
        problems.append({
            "label": f"{kind}({N},{d})", "N": N, "d": d, "values": table,
            "words": ref.words_up_to(N, 2 * d + 1), "extract": extract_ok(kind, N, d),
        })
        expected.append({"family": fam, "gram": gram, "cond": float(np.linalg.cond(gram))})
    return problems, expected


def _family_json(fam: ref.Family) -> str:
    obj = {
        "N": fam.N,
        "depth": fam.depth,
        "A": [{"n": n, "k": k, "rows": a.tolist()} for (n, k), a in sorted(fam.A.items())],
        "B": [{"n": n, "k": k, "rows": b.tolist()} for (n, k), b in sorted(fam.B.items())],
    }
    return json.dumps(obj)


def _truncated(fam: ref.Family, depth: int) -> ref.Family:
    return ref.Family(
        fam.N, depth,
        {key: a for key, a in fam.A.items() if key[0] <= depth},
        {key: b for key, b in fam.B.items() if key[0] <= depth},
    )


def cli_inputs(seed: int):
    """Chains of commands at N=2; ``{work}`` stands for the work directory."""
    rng = _rng(seed, "cli_pipeline")
    N, d, D = 2, CLI_DEPTH, CLI_FAMILY_DEPTH
    semi = {"a": [1.0] * D, "b": [0.0] * (D + 1)}
    dense = ref.dense_family(rng, N, D)
    files = {"semi.json": json.dumps(semi), "dense.json": _family_json(dense)}
    chains = [(f"free{i}", spec, ref.free_family(parse_spec(spec, D), D))
              for i, spec in enumerate(CLI_SPECS)]
    chains.append(("dense", None, dense))
    problems, expected = [], []
    words = ref.words_up_to(N, 2 * d + 1)

    def add(chain, argv, check, entries=0):
        problems.append({"label": f"{chain}:{argv[0]}", "chain": chain,
                         "argv": argv, "entries": entries})
        expected.append(check)

    for chain, spec, fam in chains:
        w = "{work}/"
        fam_file = f"{w}dense.json" if spec is None else f"{w}{chain}_family.json"
        table = ref.moment_table(fam, 2 * d + 1)
        gram = ref.gram(table, N, d)
        bound = float(np.linalg.cond(gram)) * ref.EPS
        semicircle = spec is not None and spec.startswith("custom:")
        pairings = np.array([ref.nc_pairings(u) for u in words], dtype=float) if semicircle else None
        if spec is not None:
            spec_arg = spec.replace("custom:", "custom:" + w)
            add(chain, ["freeproduct", "--spec", spec_arg, "--depth", str(D), "--out", fam_file],
                {"kind": "family", "path": fam_file, "family": fam, "depth": D, "tol": 0.0})
            add(chain, ["verify", "--family", fam_file], {"kind": "ok"})
        mom = f"{w}{chain}_moments.json"
        add(chain, ["moments", "--family", fam_file, "--max-degree", str(d), "--out", mom],
            {"kind": "moments", "path": mom, "N": N, "table": table, "tol": MOMENT_TOL,
             "pairings": pairings}, len(words))
        rec = f"{w}{chain}_recovered.json"
        add(chain, ["jacobi", "--moments", mom, "--depth", str(d), "--out", rec],
            {"kind": "family", "path": rec, "family": _truncated(fam, d), "depth": d,
             "tol": bound}, len(words))
        add(chain, ["verify", "--family", rec], {"kind": "ok"})
        basis = f"{w}{chain}_basis.json"
        add(chain, ["orthonormalize", "--moments", mom, "--depth", str(d), "--out", basis],
            {"kind": "basis", "path": basis, "N": N, "gram": gram, "tol": bound}, len(words))
        add(chain, ["verify", "--moments", mom], {"kind": "ok"}, len(words))
        word = tuple(int(c) for c in rng.integers(1, N + 1, size=PATH_WORD_LENGTH))
        add(chain, ["paths", "--word", ",".join(map(str, word)), "--family", fam_file],
            {"kind": "paths", "moment": ref.moment(fam, word), "count": ref.motzkin(len(word)),
             "tol": MOMENT_TOL, "pairings": float(ref.nc_pairings(word)) if semicircle else None})
    inputs = {"problems": problems, "files": files,
              "warmup": {"argv": ["verify", "--family", "{work}/dense.json"]}}
    return inputs, expected


def digest(obj) -> str:
    """SHA-256 over the numbers and labels of the generated inputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        elif isinstance(x, dict):
            for key in sorted(x, key=repr):
                h.update(repr(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()[:16]


def make_inputs(workload: str, seed: int, smoke: bool):
    if workload == "cli_pipeline":
        inputs, expected = cli_inputs(seed)
        problems = inputs["problems"]
    else:
        build = forward_inputs if workload == "forward_moments" else inverse_inputs
        problems, expected = build(seed)
        inputs = {"problems": problems}
    if smoke:
        kept = [i for i, p in enumerate(problems) if SMOKE[workload](p)]
        problems[:] = [problems[i] for i in kept]
        expected[:] = [expected[i] for i in kept]
    return inputs, expected


# -- processes ----------------------------------------------------------------------


def worker_env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, timeout: float) -> tuple[float, str]:
    """Run a child to its end; return its start time and standard output.

    The child leads its own process group, so on a timeout the commands it
    started are killed with it.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} exited {proc.returncode}:\n{err[-2000:]}")
    sys.stderr.write(err)
    return t0, out


def run_worker(workload, workdir, seconds, trace, probe, deadline):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--data", str(workdir), "--seconds", repr(seconds), "--trace", str(trace)]
    if probe:
        argv.append("--probe")
    t0, out = run_child(argv, max(1.0, deadline - perf_counter()))
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def import_times(samples: int) -> tuple[float, float]:
    """Cumulative ``import ncjacobi`` and ``scipy.linalg`` times, fresh interpreters."""
    total, scipy = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ncjacobi"],
            env=worker_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue
        total.append(cumulative["ncjacobi"])
        scipy.append(cumulative.get("scipy.linalg", 0.0))
    return median(total), median(scipy)


def accuracy(errors: dict) -> tuple[float, str, float]:
    """Mean of the per-problem digits, and the worst problem with its digits."""
    digits = {key: ref.digits(err) for key, err in errors.items()}
    worst = min(digits, key=digits.get)
    return sum(digits.values()) / len(digits), worst, digits[worst]


def end_to_end(setups, result, errors) -> dict:
    times = [dt for _, dt in result["times"]]
    mean_digits, _, _ = accuracy(errors)
    return {
        "setup_s": median(setups),
        "ops_per_s": len(times) / sum(times),
        # every problem weighs the same; the median would be the middle problem's time only
        "op_s_gmean": math.exp(sum(math.log(dt) for dt in times) / len(times)),
        "peak_rss_mb": result["peak_rss_mb"],
        "accuracy_digits": mean_digits,
    }


def per_layer(result, import_s, import_scipy_s) -> dict:
    layers = result["layers"]
    entries = layers["entries"]
    out = {}
    for name, _ in PER_LAYER:
        out[name] = float(layers.get(name, 0.0))
    out["cli.import_s"] = import_s
    out["cli.import_scipy_s"] = import_scipy_s
    moment_calls = layers.get("functional.moment.calls", 0.0)
    operator_calls = layers.get("jacobi.operator_moment.calls", 0.0)
    out["functional.moment.per_entry"] = moment_calls / entries if entries else 0.0
    out["jacobi.operator_moment.per_moment"] = operator_calls / entries if entries else 0.0
    return out


def run_workload(workload, seed, seconds, trace, smoke, deadline):
    inputs, expected = make_inputs(workload, seed, smoke)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        with open(workdir / "inputs.pkl", "wb") as fh:
            pickle.dump(inputs, fh)
        with open(workdir / "expected.pkl", "wb") as fh:
            pickle.dump(expected, fh)
        setups = []
        if not trace and not smoke:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(workload, workdir, seconds, 0, True, deadline)["setup_s"])
        result = run_worker(workload, workdir, seconds, int(trace or smoke), False, deadline)
        setups.append(result["setup_s"])
        spans = workdir / "spans.tsv"
        if spans.exists():
            spans.replace(out_dir / f"spans-{workload}-seed{seed}.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # accuracy is per problem; a chain of commands is one problem
    chains = {}
    for p, err in zip(inputs["problems"], result["errors"]):
        label = p.get("chain", p["label"])
        chains[label] = max(chains.get(label, 0.0), err)
    metrics = {}
    if not trace or smoke:
        metrics.update(end_to_end(setups, result, chains))
    if trace or smoke:
        samples = 1 if smoke else IMPORT_SAMPLES
        metrics.update(per_layer(result, *import_times(samples)))
    _, worst, worst_digits = accuracy(chains)
    per_problem = {}
    for i, dt in result["times"]:
        per_problem.setdefault(inputs["problems"][i]["label"], []).append(dt)
    print("median seconds per operation: " + ", ".join(
        f"{label} {median(dts):.4f}" for label, dts in per_problem.items()))
    timed = sum(dt for _, dt in result["times"])
    print(
        f"{workload}: seed {seed}, inputs sha256:{digest(inputs)}, "
        f"{result['rounds']} rounds, attempted {result['attempted']}, "
        f"failed {result['failed']}, {len(result['times']) / timed:.4g} ops/s "
        f"{'traced' if trace or smoke else 'untraced'}, "
        f"worst accuracy {worst_digits:.2f} digits at {worst}"
    )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few operations per workload, traced, printing every metric")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills its worker's process group on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "ncjacobi" / "__init__.py").is_file():
        print(f"error: no ncjacobi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = 0.0 if args.smoke else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(END_TO_END + PER_LAYER)
    results = {}
    try:
        for name in names:
            deadline = perf_counter() + RUN_TIMEOUT_S
            results[name] = run_workload(name, args.seed, seconds, args.trace, args.smoke, deadline)
    except (RuntimeError, subprocess.SubprocessError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # with several workloads each metric name is prefixed by its workload's
    prefix = len(names) > 1
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{key}" if prefix else key): {"value": value, "unit": units[key]}
            for w, r in results.items()
            for key, value in r["metrics"].items()
        },
    }
    bad = [key for key, entry in final["metrics"].items() if not math.isfinite(entry["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
