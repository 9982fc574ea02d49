"""The output-hash script: a seeded CLI pipeline hashed file by file."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_hashes.py"


def run_script() -> list[str]:
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          check=True)
    return proc.stdout.splitlines()


def test_two_runs_print_the_same_line_for_each_file():
    first, second = run_script(), run_script()
    assert first == second
    paths = [line.split("  ", 1)[1] for line in first]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in first)
    assert paths == sorted(set(paths))  # one line per file
    assert len(paths) == 31
    assert {"data/mains.csv", "heater.json", "pump.json", "hard/checkpoint.ddnn",
            "config/checkpoint.ddnn", "metrics.csv", "evaluate.txt"} <= set(paths)
    assert sum(p.endswith(("/estimate.csv", "/states.csv")) for p in paths) == 18
    assert not any(p.endswith("effective_config.json") for p in paths)
