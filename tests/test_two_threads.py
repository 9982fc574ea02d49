"""The twin subnetworks on two threads give the bits of one thread.

``autodiff.run_pair`` uses its worker thread only when OpenBLAS runs on one
thread and two cores are usable. The in-process tests here open that gate
by patching it, at whatever BLAS thread count the suite runs with, and
compare against the serial order. The subprocess test runs the real gate:
at one BLAS thread, a child pinned to one core runs the serial order and a
child with two cores the concurrent one.
"""
from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from wattsplit import autodiff as ad
from wattsplit.checkpoint import save_checkpoint
from wattsplit.model import DisaggNet, NetConfig
from wattsplit.series import PowerSeries
from wattsplit.states import ApplianceStateModel
from wattsplit.trainer import VARIANTS, TrainConfig, disaggregate, train
from wattsplit.windows import WindowConfig, WindowedExample

ROOT = Path(__file__).resolve().parents[1]
DEMO_STACK = ((16, 9), (16, 7), (24, 5))  # the canned demo's net
STATE_MODEL = ApplianceStateModel("heater", np.array([0.0, 150.0]), 40.0, 50.0)


@pytest.fixture
def two_threads(monkeypatch):
    monkeypatch.setattr(ad, "subnetworks_on_two_threads", lambda: True)


def demo_net(seed=4) -> DisaggNet:
    return DisaggNet(NetConfig(WindowConfig(32, 40), 2, DEMO_STACK, hidden=96, seed=seed))


def examples(n=40, seed=1) -> list[WindowedExample]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        idx = rng.integers(0, 2, size=32)
        out.append(WindowedExample(rng.normal(size=112), rng.normal(size=32) * 0.5,
                                   np.eye(2)[idx]))
    return out


def trained_checkpoint(tmp_path, name, **cfg) -> bytes:
    net = demo_net()
    centroids = np.array([-0.8, 2.2]) if cfg.get("lambda_power") else None
    train(net, examples(), TrainConfig(epochs=2, batch_size=16, seed=3, **cfg),
          centroid_targets=centroids)
    path = tmp_path / f"{name}.ddnn"
    save_checkpoint(net, path)
    return path.read_bytes()


TRAIN_CASES = [dict(variant="plain"), dict(variant="hard"),
               dict(variant="hard", lambda_power=0.5)]


@pytest.mark.parametrize("cfg", TRAIN_CASES, ids=["plain", "hard", "lambda-power"])
def test_training_on_two_threads_writes_the_serial_checkpoint(tmp_path, monkeypatch, cfg):
    monkeypatch.setattr(ad, "subnetworks_on_two_threads", lambda: False)
    serial = trained_checkpoint(tmp_path, "serial", **cfg)
    monkeypatch.setattr(ad, "subnetworks_on_two_threads", lambda: True)
    assert trained_checkpoint(tmp_path, "concurrent", **cfg) == serial


@pytest.mark.parametrize("variant", VARIANTS)
def test_disaggregation_on_two_threads_is_bitwise_serial(monkeypatch, variant):
    net = demo_net()
    mains = PowerSeries(0, 6, np.random.default_rng(9).uniform(0.0, 200.0, size=3011))
    results = []
    for gate in (False, True):
        monkeypatch.setattr(ad, "subnetworks_on_two_threads", lambda gate=gate: gate)
        results.append(disaggregate(net, mains, STATE_MODEL, variant, stride=16))
    serial, concurrent = results
    assert concurrent.estimate.values.tobytes() == serial.estimate.values.tobytes()
    assert concurrent.states.tobytes() == serial.states.tobytes()


def test_gate_decides_whether_the_worker_runs(monkeypatch):
    for gate in (False, True):
        monkeypatch.setattr(ad, "subnetworks_on_two_threads", lambda gate=gate: gate)
        first, second = ad.run_pair(threading.get_ident, threading.get_ident)
        assert (first != second) == gate
        assert second == threading.get_ident()


FIRST_CALLS = """
import threading
from wattsplit import autodiff as ad

def worker_threads():
    return sum(t.name.startswith("wattsplit") for t in threading.enumerate())

assert worker_threads() == 0  # the import starts no thread
ad.subnetworks_on_two_threads = lambda: True
barrier, workers = threading.Barrier(2, timeout=60), []

def call():
    barrier.wait()
    workers.append(ad.run_pair(threading.get_ident, lambda: None)[0])

callers = [threading.Thread(target=call) for _ in range(2)]
for t in callers:
    t.start()
for t in callers:
    t.join(timeout=60)
    assert not t.is_alive()
assert len(workers) == 2 and len(set(workers)) == 1, workers
assert workers[0] not in {t.ident for t in callers}
print(worker_threads())
"""


def test_two_first_calls_at_once_share_one_worker():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FIRST_CALLS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_worker_errors_reach_the_caller(two_threads):
    def fail():
        raise ValueError("from the worker")

    with pytest.raises(ValueError, match="from the worker"):
        ad.run_pair(fail, lambda: None)


def test_worker_runs_in_the_callers_tape_mode(two_threads):
    x = ad.Tensor(np.ones((2, 3)))
    with ad.no_tape():
        on_worker, here = ad.run_pair(lambda: ad.relu(x), lambda: ad.relu(x))
    assert on_worker._backward is None and here._backward is None
    on_worker, here = ad.run_pair(lambda: ad.relu(x), lambda: ad.relu(x))
    assert on_worker._backward is not None and here._backward is not None


def test_backward_reaches_every_parameter_on_two_threads(two_threads):
    from wattsplit.model import total_loss

    net = demo_net()
    batch = examples(4)
    fwd = net.forward_tensors(np.stack([ex.input for ex in batch]))
    total, _, _ = total_loss(fwd, np.stack([ex.target_power for ex in batch]),
                             np.stack([ex.target_states for ex in batch]))
    total.backward()
    for p in net.parameters():
        assert p.tensor.grad is not None and np.any(p.tensor.grad != 0), p.name


def test_predict_on_two_threads_leaves_no_reference_cycles(two_threads):
    net = demo_net()
    x = np.random.default_rng(2).normal(size=(3, 112))
    net.predict(x)  # starts the worker thread
    gc.collect()
    gc.disable()
    try:
        net.predict(x)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("variant", ["plain", "hard"])
def test_training_on_two_threads_leaves_no_reference_cycles(two_threads, variant):
    net, data = demo_net(), examples(12)
    cfg = TrainConfig(epochs=2, batch_size=4, variant=variant, lambda_power=0.5)
    train(net, data[:4], cfg, centroid_targets=np.zeros(2))  # starts the worker thread
    gc.collect()
    gc.disable()
    try:
        train(net, data, cfg, centroid_targets=np.zeros(2))
        assert gc.collect() == 0
    finally:
        gc.enable()


CHILD = """
import json, os, sys
if sys.argv[2] == "one-core":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from wattsplit.cli import main

out = sys.argv[1]
scenario = {"appliances": [{"name": "heater", "centroids": [0.0, 150.0],
            "mean_on_duration": 50.0, "activation_rate": 0.002}],
            "duration": 3000, "period": 6, "unknown_load": 20.0, "noise_std": 10.0,
            "start_time": 1600000000, "seed": 5}
with open(os.path.join(out, "scenario.json"), "w") as fh:
    json.dump(scenario, fh)
net = ["--conv-stack", "16x9,16x7,24x5", "--hidden", "96", "--window-w", "40"]
for argv in (
    ["synth", "--scenario", f"{out}/scenario.json", "--out", f"{out}/data"],
    ["states", "--appliance", f"{out}/data/heater.csv", "--state-count", "2",
     "--name", "heater", "--out", f"{out}/states.json"],
    ["train", "--mains", f"{out}/data/mains.csv", "--appliance", f"{out}/data/heater.csv",
     "--state-model", f"{out}/states.json", "--variant", "hard", "--epochs", "1",
     "--stride", "16", "--seed", "2", "--out", f"{out}/model", *net],
    ["disaggregate", "--checkpoint", f"{out}/model/checkpoint.ddnn",
     "--state-model", f"{out}/states.json", "--mains", f"{out}/data/mains.csv",
     "--variant", "hard-median", "--stride", "16", "--out", f"{out}/est"],
):
    assert main(argv) == 0, argv
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable cores")
def test_one_core_and_two_cores_write_the_same_bytes(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    outputs = {}
    for cores in ("one-core", "two-cores"):
        out = tmp_path / cores
        out.mkdir()
        subprocess.run([sys.executable, "-c", CHILD, str(out), cores], env=env,
                       check=True, timeout=600)
        echo = json.loads((out / "est" / "effective_config.json").read_text())
        outputs[cores] = [echo["environment"]] + [
            (out / name).read_bytes() for name in
            ("model/checkpoint.ddnn", "est/estimate.csv", "est/states.csv")]
    one, two = outputs["one-core"], outputs["two-cores"]
    if two[0]["blas_threads"] != 1:
        pytest.skip("numpy's BLAS reports no OpenBLAS thread count")
    assert not one[0]["subnetworks_on_two_threads"]
    assert two[0]["subnetworks_on_two_threads"]
    assert one[1:] == two[1:]
