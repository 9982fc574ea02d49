"""Tests of the benchmark's output checks: each passes on the program's own
output and fails once that output is perturbed.

    python3 -m pytest bench/test_checks.py -q
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
from wattsplit.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from wattsplit.model import ConvLayerSpec, DisaggNet, NetConfig, total_loss  # noqa: E402
from wattsplit.series import PowerSeries  # noqa: E402
from wattsplit.states import ApplianceStateModel  # noqa: E402
from wattsplit.trainer import disaggregate  # noqa: E402
from wattsplit.windows import WindowConfig  # noqa: E402

STATE_MODEL = {"centroids": np.array([0.0, 80.0, 400.0]), "mean": 40.0, "std": 90.0,
               "threshold": 15.0}


@pytest.fixture
def saved(tmp_path):
    net = DisaggNet(NetConfig(window=WindowConfig(8, 6), state_count=3,
                              conv_stack=(ConvLayerSpec(4, 3), ConvLayerSpec(5, 3, 2)),
                              hidden=12, seed=3))
    path = tmp_path / "net.ddnn"
    save_checkpoint(net, path)
    config, params = ref.read_checkpoint(path)
    return load_checkpoint(path), config, params


@pytest.fixture
def series():
    rng = np.random.default_rng(5)
    truth = np.repeat(rng.choice([0.0, 80.0, 400.0], size=30), 7)
    mains = truth + 20.0 + rng.uniform(0.0, 5.0, size=truth.size)
    return mains, truth


def test_reader_matches_program(saved):
    net, config, params = saved
    assert config == {"s": 8, "w": 6, "states": 3, "stack": [(4, 3, 1), (5, 3, 2)]}
    for p in net.parameters():
        assert np.array_equal(params[p.name], p.tensor.values)


def test_forward_check_catches_a_perturbed_parameter(saved, series):
    net, config, params = saved
    mains, _ = series
    norm = (mains - STATE_MODEL["mean"]) / STATE_MODEL["std"]
    x = ref.windows_at(norm, [0, 17, 100, len(mains) - 8], 8, 6, -40.0 / 90.0)
    ref.check_forward(net.predict(x), config, params, x)
    net.parameters()[4].tensor.values[0, 0] += 1e-6  # power/fc/weights
    with pytest.raises(ref.CheckFailed, match="forward"):
        ref.check_forward(net.predict(x), config, params, x)


def _gradient_inputs(net, series):
    mains, truth = series
    starts = [3, 40, 90, 150]
    norm = (mains - STATE_MODEL["mean"]) / STATE_MODEL["std"]
    x = ref.windows_at(norm, starts, 8, 6, -40.0 / 90.0)
    target = np.stack([(truth[st:st + 8] - 40.0) / 90.0 for st in starts])
    labels = ref.state_labels(truth, STATE_MODEL)
    states = np.stack([labels[st:st + 8] for st in starts])
    total, _, _ = total_loss(net.forward_tensors(x), target, np.eye(3)[states])
    total.backward()
    grads = {p.name: p.tensor.grad for p in net.parameters()}
    return grads, float(total.values), x, target, states


def test_gradient_check_catches_a_wrong_gradient(saved, series):
    net, config, params = saved
    grads, value, x, target, states = _gradient_inputs(net, series)
    assert ref.check_gradients(grads, value, config, params, x, target, states,
                               np.random.default_rng(0), 40) == 40
    scaled = {name: g * 1.001 for name, g in grads.items()}
    with pytest.raises(ref.CheckFailed, match="gradient"):
        ref.check_gradients(scaled, value, config, params, x, target, states,
                            np.random.default_rng(0), 40)


def test_gradient_check_catches_a_perturbed_parameter(saved, series):
    net, config, params = saved
    grads, value, x, target, states = _gradient_inputs(net, series)
    params["power/head/bias"][1] += 1e-6
    with pytest.raises(ref.CheckFailed, match="loss"):
        ref.check_gradients(grads, value, config, params, x, target, states,
                            np.random.default_rng(0), 8)


@pytest.mark.parametrize("stride", [1, 3, 8])
def test_inference_check_catches_a_perturbed_estimate(saved, series, stride):
    net, config, params = saved
    mains, _ = series
    model = ApplianceStateModel("pump", STATE_MODEL["centroids"], 40.0, 90.0)
    estimate = disaggregate(net, PowerSeries(0, 6, mains), model,
                            variant="hard_median", stride=stride).estimate.values
    expected = ref.hard_median_estimate(config, params, mains, STATE_MODEL, stride,
                                        0, len(mains))
    ref.check_inference(estimate, expected, 1e-9)
    middle = ref.hard_median_estimate(config, params, mains, STATE_MODEL, stride, 50, 90)
    ref.check_inference(estimate[50:90], middle, 1e-9)
    estimate[61] += 1e-6
    with pytest.raises(ref.CheckFailed, match="inference"):
        ref.check_inference(estimate, expected, 1e-9)


def test_estimate_states_and_mae_checks_catch_bad_outputs(series):
    mains, truth = series
    estimate = np.abs(truth - 3.0)
    ref.check_estimate(estimate, len(mains))
    for bad, length in ((estimate[:-1], len(mains)), (estimate - 10.0, len(mains)),
                        (np.where(truth > 0, np.nan, estimate), len(mains))):
        with pytest.raises(ref.CheckFailed, match="estimate"):
            ref.check_estimate(bad, length)
    indices = np.minimum(truth, 2.0)
    ref.check_states(indices, 3, len(mains))
    for bad in (indices + 1.0, indices - 0.5, indices[1:]):
        with pytest.raises(ref.CheckFailed, match="states"):
            ref.check_states(bad, 3, len(mains))
    mae = float(np.mean(np.abs(truth - estimate)))
    ref.check_mae(mae, truth, estimate, 1e-12)
    perturbed = estimate.copy()
    perturbed[7] += 1.0
    with pytest.raises(ref.CheckFailed, match="mae"):
        ref.check_mae(mae, truth, perturbed, 1e-4)
