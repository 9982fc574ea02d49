"""The canned-experiment script, run in-process on a short scenario."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from wattsplit.checkpoint import load_checkpoint
from wattsplit.metrics import METRIC_HEADER, PLOT_HEADER

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synth_demo.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_synth_demo", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_out_directory_holds_every_artifact(tmp_path, capsys):
    # shorter scenarios can leave a holdout where an appliance never runs,
    # and the energy error of such a holdout is undefined
    out = tmp_path / "run"
    assert load_script().main(["--duration", "20000", "--epochs", "1",
                               "--out", str(out)]) == 0
    assert f"artifacts written to {out}" in capsys.readouterr().out
    for appliance in ("heater", "pump"):
        folder = out / appliance
        metrics = (folder / "metrics.csv").read_text().splitlines()
        assert metrics[0] == METRIC_HEADER
        assert [row.split(",")[0] for row in metrics[1:]] == [appliance]
        assert int(metrics[1].split(",")[3]) == 4000  # the 20% holdout
        plot = (folder / f"plot_{appliance}.csv").read_text().splitlines()
        assert plot[0] == PLOT_HEADER == "t,truth,plain,variant"
        assert len(plot) == 4001
        for mode in ("hard", "plain"):
            assert (folder / f"train_{mode}.csv").read_text().startswith(
                "epoch,loss_total,loss_output,loss_state\n1,")
            assert load_checkpoint(folder / f"{mode}.ddnn").epochs_seen == 1
