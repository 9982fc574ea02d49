#!/usr/bin/env python3
"""Print the sha256 of every file a fixed, seeded CLI pipeline writes.

    python3 scripts/output_hashes.py

Runs ``wattsplit.cli.main`` in-process, at one BLAS thread, in a temporary
directory: ``synth`` on a two-appliance scenario, ``states`` for both
appliances, ``train`` of a ``hard`` net and of a ``--config`` net (with
``lambda_power`` 0.5 and a stride-2 conv layer), ``disaggregate`` of the
first net with each variant at strides 16 and 7 and of the second with
``hard-median``, and ``evaluate``. Prints one ``sha256  path`` line per
output file, sorted by path, with ``evaluate``'s printed table kept as
``evaluate.txt``. The other commands' printouts are not kept: ``train``'s
holds a wall time. The ``effective_config.json`` echoes are left out: they
hold absolute paths, which differ between checkouts.

A refactor that claims byte-identical outputs is checked by one ``diff``
of this script's output in the parent's checkout and in the change's.
"""
import os
import sys

# OpenBLAS reads this when numpy loads, so it is set before any import of
# numpy; output bits depend on the BLAS thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wattsplit import cli  # noqa: E402

SCENARIO = {
    "appliances": [
        {"name": "heater", "centroids": [0.0, 150.0], "mean_on_duration": 30.0,
         "activation_rate": 0.004},
        {"name": "pump", "centroids": [0.0, 80.0, 400.0], "mean_on_duration": 20.0,
         "activation_rate": 0.006},
    ],
    "duration": 6000, "period": 6, "unknown_load": 20.0, "noise_std": 10.0,
    "start_time": 1_600_000_000, "seed": 11,
}
NET = ["--window-s", "32", "--window-w", "40", "--conv-stack", "8x9,8x7",
       "--hidden", "16", "--epochs", "3", "--stride", "8", "--seed", "3"]
CONFIG = {"window_s": 32, "window_w": 40, "conv_stack": [[8, 9], [8, 7, 2]],
          "hidden": 16, "epochs": 3, "stride": 8, "seed": 4, "lambda_power": 0.5,
          "variant": "hard_median"}


def run(*argv) -> str:
    """Run one command; returns what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"wattsplit {argv[0]} exited with {code}")
    return printed.getvalue()


def pipeline(root: Path) -> None:
    data = root / "data"
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    run("synth", "--scenario", root / "scenario.json", "--out", data)
    run("states", "--appliance", data / "heater.csv", "--state-count", "2",
        "--name", "heater", "--out", root / "heater.json")
    run("states", "--appliance", data / "pump.csv", "--state-count", "3",
        "--name", "pump", "--out", root / "pump.json")
    run("train", "--mains", data / "mains.csv", "--appliance", data / "heater.csv",
        "--state-model", root / "heater.json", "--variant", "hard",
        "--out", root / "hard", *NET)
    (root / "config.json").write_text(json.dumps(CONFIG))
    run("train", "--config", root / "config.json", "--mains", data / "mains.csv",
        "--appliance", data / "pump.csv", "--state-model", root / "pump.json",
        "--out", root / "config")
    for variant in ("plain", "median", "hard", "hard-median"):
        for stride in (16, 7):
            run("disaggregate", "--checkpoint", root / "hard" / "checkpoint.ddnn",
                "--mains", data / "mains.csv", "--state-model", root / "heater.json",
                "--variant", variant, "--stride", stride,
                "--out", root / f"est-{variant}-{stride}")
    run("disaggregate", "--checkpoint", root / "config" / "checkpoint.ddnn",
        "--mains", data / "mains.csv", "--state-model", root / "pump.json",
        "--variant", "hard-median", "--out", root / "est-config")
    printed = run("evaluate", "--estimate", root / "est-hard-median-16" / "estimate.csv",
                  "--truth", data / "heater.csv", "--name", "heater",
                  "--out", root / "metrics.csv")
    (root / "evaluate.txt").write_text(printed, encoding="utf-8")


def main() -> int:
    skipped = {"scenario.json", "config.json", "effective_config.json"}
    with tempfile.TemporaryDirectory(prefix="output-hashes-") as tmp:
        root = Path(tmp)
        pipeline(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if path.name not in skipped:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
