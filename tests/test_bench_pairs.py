"""The paired-benchmark script, with its benchmark run replaced by a stub."""
from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_the_table_holds_medians_wins_and_iqr(tmp_path, capsys):
    module = load_script()
    parent = tmp_path / "parent"
    (parent / "src" / "wattsplit").mkdir(parents=True)
    (parent / "src" / "wattsplit" / "a.py").write_text("x = 1\ny = 2\n")
    (parent / "src" / "wattsplit" / "b.py").write_text("z = 3\n\nw = 4")  # wc -l: 2
    (parent / "src" / "wattsplit" / "notes.txt").write_text("not counted\n")
    calls = []

    def stub(tree, workload, seed, seconds):
        calls.append((Path(tree), workload, seed, seconds))
        side = 0 if Path(tree) == parent else 1
        # the change is 20 units better on every metric in pairs 0 and 2,
        # and 10 units worse in pair 1; the parent reads 100, 110, 120
        step = 20.0 if seed != 8 else -10.0
        metrics = {}
        for m in BENCHMARK["end_to_end"]:
            base = 100.0 + 10.0 * (seed - 7)
            sign = 1.0 if m["better"] == "higher" else -1.0
            metrics[m["name"]] = {"value": base + side * sign * step, "unit": m["unit"]}
        return {"correct": True, "attempted": 5 + side, "failed": side, "metrics": metrics}

    raw = tmp_path / "raw.jsonl"
    assert module.main([str(parent), "--pairs", "3", "--seconds", "0", "--seed", "7",
                        "--workload", "train-demo", "--json", str(raw)], run=stub) == 0
    # the same seed on both sides, and the side that runs first alternates
    assert [(c[0] == parent, c[2]) for c in calls] == [
        (True, 7), (False, 7), (False, 8), (True, 8), (True, 9), (False, 9)]
    assert all(c[1] == "train-demo" and c[3] == 0 for c in calls)
    assert calls[1][0] == ROOT
    # --json: one line per run, in run order, holding the stub's whole result
    lines = [json.loads(line) for line in raw.read_text().splitlines()]
    assert [(r["pair"], r["seed"], r["side"]) for r in lines] == [
        (1, 7, "parent"), (1, 7, "change"), (2, 8, "change"), (2, 8, "parent"),
        (3, 9, "parent"), (3, 9, "change")]
    for r, (tree, workload, seed, seconds) in zip(lines, list(calls)):
        assert r["workload"] == workload
        assert r == {"workload": workload, "pair": r["pair"], "seed": seed, "side": r["side"],
                     **stub(tree, workload, seed, seconds)}
    out = capsys.readouterr().out
    rows = {line.split("|")[2].strip(" `"): [cell.strip() for cell in line.split("|")[3:7]]
            for line in out.splitlines() if line.startswith("| `train-demo`")}
    assert set(rows) == {m["name"] for m in BENCHMARK["end_to_end"]}
    higher = rows["train_windows_per_s"]
    assert higher[0] == "110" and higher[1].startswith("120 (+9.1%)")
    assert higher[2] == "2 of 3" and higher[3] == "10"
    lower = rows["job_s"]
    assert lower[0] == "110" and lower[1].startswith("100 (-9.1%)")
    assert lower[2] == "2 of 3"
    assert "train-demo parent: 0 of 15 operations failed, every run correct: True" in out
    assert "train-demo change: 3 of 18 operations failed" in out
    change = module.source_lines(ROOT)
    if shutil.which("wc"):
        sources = sorted((ROOT / "src" / "wattsplit").glob("*.py"))
        wc = subprocess.run(["wc", "-l", *map(str, sources)], check=True,
                            capture_output=True, text=True).stdout
        assert int(wc.splitlines()[-1].split()[0]) == change
    assert out.splitlines()[-1] == (f"wc -l src/wattsplit/*.py: parent 4, change "
                                    f"{change:,} ({change - 4:+,})")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_git_ref_is_checked_out_into_a_worktree_removed_at_exit(tmp_path):
    module = load_script()
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                               "-c", "user.email=t@example.invalid", *args],
                              check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    (repo / "marker.txt").write_text("first\n")
    git("add", "marker.txt")
    git("commit", "-q", "-m", "first")
    (repo / "marker.txt").write_text("second\n")
    git("commit", "-q", "-am", "second")
    with module.checkout("HEAD~1", repo) as tree:
        assert (tree / "marker.txt").read_text() == "first\n"
        assert len(git("worktree", "list").splitlines()) == 2
    assert not tree.exists()
    assert len(git("worktree", "list").splitlines()) == 1
