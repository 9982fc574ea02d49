"""The benchmark's own output checks pass end to end on this tree.

``bench/run.py`` checks each round's outputs (checkpoint, forward pass,
gradients, estimate, states, MAE) against ``bench/reference.py``, which is
written apart from the program. This runs one round of each workload of
``BENCHMARK.json`` (``--seconds 0``) in a subprocess, the way the benchmark
is run, and requires exit 0, every check passed, no failed operation and
every end-to-end metric that ``BENCHMARK.json`` names.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_round_passes_every_check(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert names <= set(result["metrics"]), names - set(result["metrics"])
