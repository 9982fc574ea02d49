"""The benchmark's tracer still finds every program name it wraps.

``bench/spans.py`` replaces functions of ``wattsplit`` from outside
(``autodiff.sigmoid``, ``Parameter.trainable``,
``DisaggNet.forward_tensors``, ...). A deleted or renamed name would break
only a traced bench run; this test makes it fail here instead, by running
a tiny synth -> states -> train -> disaggregate pipeline through
``cli.main`` under the tracer, and checks that the disaggregation's
forward pass is timed.
"""
from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

SCENARIO = {
    "appliances": [{"name": "heater", "centroids": [0.0, 150.0],
                    "mean_on_duration": 50.0, "activation_rate": 0.01}],
    "duration": 2000, "period": 6, "unknown_load": 20.0, "noise_std": 10.0,
    "start_time": 1_600_000_000, "seed": 7,
}
NET = ["--conv-stack", "4x5", "--hidden", "8", "--window-w", "8"]


def _benchmark_per_layer_names() -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    # trace.job_s is measured by the runner around the job, not by the tracer
    return {m["name"] for m in doc["per_layer"]} - {"trace.job_s"}


def test_tracer_wraps_a_whole_cli_pipeline(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    from wattsplit import cli

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    data, model, out = tmp_path / "data", tmp_path / "model", tmp_path / "out"
    states = tmp_path / "states.json"
    tracer = spans.Tracer()
    tracer.install()
    try:
        runs = [
            ["synth", "--scenario", str(scenario), "--out", str(data)],
            ["states", "--appliance", str(data / "heater.csv"), "--state-count", "2",
             "--out", str(states), "--name", "heater"],
            ["train", "--mains", str(data / "mains.csv"),
             "--appliance", str(data / "heater.csv"), "--state-model", str(states),
             "--out", str(model), "--variant", "hard", "--epochs", "1", *NET],
        ]
        for argv in runs:
            assert cli.main(argv) == 0, argv
        # overlapping windows (stride < s = 32), traced as the bench's job phase
        tracer.phase = "job"
        assert cli.main(["disaggregate", "--checkpoint", str(model / "checkpoint.ddnn"),
                         "--mains", str(data / "mains.csv"), "--state-model", str(states),
                         "--variant", "hard-median", "--stride", "7",
                         "--out", str(out)]) == 0
    finally:
        tracer.uninstall()

    job = tracer.by_phase()["job"]
    forward = sum(job.get(name, {"total_s": 0.0})["total_s"]
                  for name in ("model.predict", "model.forward_tensors"))
    assert forward > 0
    assert job["autodiff.conv1d_fwd"]["total_s"] > 0
    metrics = tracer.per_layer(setups=1, rounds=1)
    assert _benchmark_per_layer_names() <= set(metrics)
    assert metrics["optim.adam_steps"][0] > 0
    assert metrics["windows.windows_made"][0] > 0
