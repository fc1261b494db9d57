"""Smoke run of the benchmark: every workload, a few operations, all checks.

Wall time is not gated.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_prints_every_metric_without_failures():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(run.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert any(line.startswith(f"{workload['name']}: ") for line in lines)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            entry = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]


def test_input_digest_follows_the_seed():
    for workload in run.WORKLOADS:
        first = run.digest(run.make_inputs(workload, 1, smoke=False)[0])
        assert first == run.digest(run.make_inputs(workload, 1, smoke=False)[0])
        assert first != run.digest(run.make_inputs(workload, 2, smoke=False)[0])
