#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on a parent and on the working tree.

    python3 scripts/bench_pairs.py HEAD~1 --pairs 10 --seconds 40

PARENT is a git ref, checked out into a temporary ``git worktree`` that is
removed at the end, or a directory that holds a checkout. Each pair runs
``bench/run.py --trace 0`` once on each side with the same seed (``--seed``
plus the pair's index); the side that runs first alternates. The workloads
and end-to-end metrics, with the direction that is better, come from the
working tree's ``BENCHMARK.json``.

For each workload and metric this prints the median of the parent's runs
and of the change's, the change in percent, the pairs the change won and
the interquartile range of the parent's runs, as a Markdown table, then
the operations attempted and failed on each side, and the source lines
of each side as ``wc -l src/wattsplit/*.py`` counts them.

With ``--json PATH``, each run's result is also written to PATH as it
finishes, one JSON object per line: the workload, the pair's number, its
seed and the side, then the run's last output line as ``bench/run.py``
printed it (its metrics, operations attempted and failed, and checks).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last output line of one ``bench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def checkout(parent: str, root: Path = ROOT):
    """A directory holding ``parent``: the directory itself, or a temporary
    detached worktree of the git ref, removed on exit."""
    if Path(parent).is_dir():
        yield Path(parent).resolve()
        return
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    tree = scratch / "parent"
    subprocess.run(["git", "-C", str(root), "worktree", "add", "--detach", str(tree), parent],
                   check=True, capture_output=True, text=True)
    try:
        yield tree
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force", str(tree)],
                       check=False, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


def source_lines(tree: Path) -> int:
    """The newlines in ``tree``'s ``src/wattsplit/*.py``: ``wc -l``'s total."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "wattsplit").glob("*.py"))


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def table(workload: str, metrics: list[dict], runs: list[tuple[dict, dict]]) -> list[str]:
    """Markdown rows, one per metric, over the pairs' (parent, change) results."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        before, after = statistics.median(parent), statistics.median(change)
        delta = f"{100.0 * (after - before) / before:+.1f}%" if before else "n/a"
        spread = iqr(parent) if len(parent) > 1 else 0.0
        lines.append(f"| `{workload}` | `{name}` | {before:.6g} | {after:.6g} ({delta}) "
                     f"| {won} of {len(runs)} | {spread:.4g} |")
    return lines


def main(argv=None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref, or a directory holding a checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write each run's raw result to PATH, one JSON line per run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    rows, tallies = [], []
    raw_file = open(args.json, "w", encoding="utf-8") if args.json else contextlib.nullcontext()
    with checkout(args.parent) as parent_tree, raw_file as raw:
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                sides = [("parent", parent_tree), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                result = {}
                for side, tree in sides:
                    result[side] = run(tree, workload, seed, seconds)
                    if raw is not None:
                        raw.write(json.dumps({"workload": workload, "pair": i + 1, "seed": seed,
                                              "side": side, **result[side]}) + "\n")
                        raw.flush()
                runs.append((result["parent"], result["change"]))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                      file=sys.stderr)
            rows += table(workload, spec["end_to_end"], runs)
            for k, side in enumerate(("parent", "change")):
                attempted = sum(r[k]["attempted"] for r in runs)
                failed = sum(r[k]["failed"] for r in runs)
                correct = all(r[k]["correct"] for r in runs)
                tallies.append(f"{workload} {side}: {failed} of {attempted} operations "
                               f"failed, every run correct: {correct}")
        lines = {side: source_lines(tree) for side, tree in
                 (("parent", parent_tree), ("change", ROOT))}
    print("| workload | metric | parent | change | better | parent IQR |")
    print("|---|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    print("\n".join(tallies))
    print()
    print(f"wc -l src/wattsplit/*.py: parent {lines['parent']:,}, change "
          f"{lines['change']:,} ({lines['change'] - lines['parent']:+,})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
