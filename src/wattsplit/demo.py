"""Canned two-appliance synthetic experiment.

Generates a seeded scenario, trains one net per appliance and per training
mode (plain, and gumbel-gated for the hard variants), then disaggregates a
trailing holdout slice and scores it. Both the experiment script and the
acceptance tests drive this module, so the whole pipeline has a single
runnable definition.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import keep_freed_memory
from .metrics import ApplianceMetrics, evaluate_pair
from .model import ConvLayerSpec, DisaggNet, NetConfig
from .series import PowerSeries
from .states import ApplianceStateModel, cluster_states
from .synth import demo_scenario, generate
from .trainer import (GUMBEL_VARIANTS, DisaggregationResult, TrainConfig,
                      TrainReport, disaggregate, train)
from .windows import WindowConfig, make_windows

__all__ = ["DEMO_WINDOW", "demo_net_config", "ApplianceOutcome", "DemoOutcome",
           "run_demo", "transition_count", "state_accuracy"]

# sized for a single CPU core: enough context to see whole activations
# (w=40 samples = 4 min at 6 s) without the full benchmark-width stack
DEMO_CONV_STACK = (ConvLayerSpec(16, 9), ConvLayerSpec(16, 7), ConvLayerSpec(24, 5))
DEMO_WINDOW = WindowConfig(s=32, w=40)
HOLDOUT_FRACTION = 0.2  # the trailing share of the scenario that is scored


def demo_net_config(state_count: int, seed: int = 0) -> NetConfig:
    return NetConfig(
        window=DEMO_WINDOW,
        state_count=state_count,
        conv_stack=DEMO_CONV_STACK,
        hidden=96,
        tau=1.0,
        seed=seed,
    )


def transition_count(state_indices: np.ndarray) -> int:
    s = np.asarray(state_indices)
    return int(np.sum(s[1:] != s[:-1]))


def state_accuracy(predicted_rows: np.ndarray, true_indices: np.ndarray) -> float:
    pred = np.argmax(predicted_rows, axis=1)
    return float(np.mean(pred == np.asarray(true_indices)))


@dataclass
class ApplianceOutcome:
    name: str
    state_model: ApplianceStateModel
    truth: PowerSeries                      # holdout appliance trace
    true_states: np.ndarray                 # holdout ground-truth indices
    models: dict[str, DisaggNet]            # training mode -> net
    reports: dict[str, TrainReport]
    results: dict[str, DisaggregationResult]
    metrics: dict[str, ApplianceMetrics]
    accuracy: dict[str, float]


@dataclass
class DemoOutcome:
    mains_holdout: PowerSeries
    appliances: list[ApplianceOutcome] = field(default_factory=list)


def _training_mode(variant: str) -> str:
    return "hard" if variant in GUMBEL_VARIANTS else "plain"


def run_demo(duration: int = 200_000, seed: int = 7, epochs: int = 10,
             batch_size: int = 16, learning_rate: float = 1e-3,
             variants: tuple[str, ...] = ("plain", "hard", "hard_median"),
             net_seed: int = 2, train_stride: int = 16,
             infer_stride: int = 16) -> DemoOutcome:
    """Train and score the canned scenario.

    ``train_stride`` spaces the training windows: at the default (half the
    output length) each net sees twice the non-overlapping window count, which
    doubles the optimizer steps per epoch. The rarely-active high-power states
    need that step budget — with lr-bounded Adam steps, a rating sitting
    several normalized standard deviations above OFF is only reachable when
    steps x lr covers the distance. ``infer_stride`` spaces the evaluation
    windows, averaging overlapping estimates.
    """
    keep_freed_memory()  # training and inference free their arrays as they go
    scenario = demo_scenario(duration=duration, seed=seed)
    mains, traces, state_seqs = generate(scenario)
    split = int(round(duration * (1.0 - HOLDOUT_FRACTION)))
    outcome = DemoOutcome(mains_holdout=mains.slice(split, duration))
    modes = sorted({_training_mode(v) for v in variants})
    for spec, trace, true_states in zip(scenario.appliances, traces, state_seqs):
        train_trace = trace.slice(0, split)
        state_model = cluster_states(train_trace, len(spec.centroids),
                                     seed=seed, name=spec.name)
        examples = list(make_windows(mains.slice(0, split), train_trace,
                                     state_model, DEMO_WINDOW, stride=train_stride))
        models: dict[str, DisaggNet] = {}
        reports: dict[str, TrainReport] = {}
        for mode in modes:
            net = DisaggNet(demo_net_config(state_model.state_count, seed=net_seed))
            net.dataset_tag = f"demo/{spec.name}"
            cfg = TrainConfig(batch_size=batch_size, learning_rate=learning_rate,
                              epochs=epochs, variant=mode, seed=seed)
            _, rep = train(net, examples, cfg)
            models[mode] = net
            reports[mode] = rep
        results: dict[str, DisaggregationResult] = {}
        metrics: dict[str, ApplianceMetrics] = {}
        accuracy: dict[str, float] = {}
        truth = trace.slice(split, duration)
        holdout_states = true_states[split:]
        for variant in variants:
            res = disaggregate(models[_training_mode(variant)],
                               outcome.mains_holdout, state_model,
                               variant=variant, stride=infer_stride)
            results[variant] = res
            metrics[variant] = evaluate_pair(spec.name, truth, res.estimate)
            accuracy[variant] = state_accuracy(res.states, holdout_states)
        outcome.appliances.append(ApplianceOutcome(
            name=spec.name, state_model=state_model, truth=truth,
            true_states=holdout_states, models=models, reports=reports,
            results=results, metrics=metrics, accuracy=accuracy,
        ))
    return outcome
