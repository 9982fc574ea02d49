"""Synthetic multi-state appliance scenarios for end-to-end validation.

Each appliance alternates OFF and ON dwells with geometric lengths
(semi-Markov renewal). An activation picks one of the ON ratings uniformly
and holds it for the dwell, so every trace takes values only in its
centroid set. Mains is the sum of traces plus a constant unknown load plus
optional Gaussian noise, clipped at 0.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .series import PowerSeries
from .states import check_keys

__all__ = [
    "ApplianceSpec",
    "SyntheticScenario",
    "activation_rate_for_duty",
    "generate",
    "save_scenario",
    "load_scenario",
    "demo_scenario",
]


@dataclass
class ApplianceSpec:
    name: str
    centroids: list[float]        # watts, ascending, first entry 0
    mean_on_duration: float       # samples
    activation_rate: float        # P(turn on) per sample while OFF

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if len(c) < 2 or c[0] != 0.0 or np.any(np.diff(c) <= 0):
            raise ValueError(
                f"centroids must be ascending with a leading 0, got {self.centroids}"
            )
        self.centroids = [float(x) for x in c]
        if self.mean_on_duration < 1:
            raise ValueError(f"mean_on_duration must be >= 1 sample, got {self.mean_on_duration}")
        if not (0.0 < self.activation_rate < 1.0):
            raise ValueError(f"activation_rate must lie in (0, 1), got {self.activation_rate}")


@dataclass
class SyntheticScenario:
    appliances: list[ApplianceSpec]
    duration: int                  # samples
    period: int = 6                # seconds
    unknown_load: float = 0.0      # constant watts not explained by appliances
    noise_std: float = 0.0         # watts
    start_time: int = 0
    seed: int = 0

    def __post_init__(self):
        if not self.appliances:
            raise ValueError("scenario needs at least one appliance")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.unknown_load < 0 or self.noise_std < 0:
            raise ValueError("unknown_load and noise_std must be >= 0")
        names = [a.name for a in self.appliances]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate appliance names: {names}")


def activation_rate_for_duty(duty: float, mean_on_duration: float) -> float:
    """Per-sample activation rate giving the requested long-run ON fraction.

    With geometric OFF dwells of mean 1/rate and ON dwells of mean d,
    duty = d / (d + 1/rate).
    """
    if not (0.0 < duty < 1.0):
        raise ValueError(f"duty must lie in (0, 1), got {duty}")
    return duty / (mean_on_duration * (1.0 - duty))


def _appliance_trace(spec: ApplianceSpec, total: int, rng: np.random.Generator):
    values = np.zeros(total)
    states = np.zeros(total, dtype=np.int64)
    centroids = np.asarray(spec.centroids)
    n_on = len(centroids) - 1
    t = 0
    while t < total:
        t += int(rng.geometric(spec.activation_rate))  # OFF dwell
        if t >= total:
            break
        state = 1 + int(rng.integers(n_on))
        end = min(t + int(rng.geometric(1.0 / spec.mean_on_duration)), total)
        values[t:end] = centroids[state]
        states[t:end] = state
        t = end
    return values, states


def generate(scenario: SyntheticScenario):
    """Return (mains, appliance series list, state index arrays).

    Deterministic for a given seed: each appliance and the noise consume
    independent child streams spawned from the scenario seed.
    """
    seqs = np.random.SeedSequence(scenario.seed).spawn(len(scenario.appliances) + 1)
    traces = []
    state_seqs = []
    for spec, seq in zip(scenario.appliances, seqs[:-1]):
        vals, states = _appliance_trace(spec, scenario.duration, np.random.default_rng(seq))
        traces.append(vals)
        state_seqs.append(states)
    mains_vals = np.sum(traces, axis=0) + scenario.unknown_load
    if scenario.noise_std > 0:
        noise_rng = np.random.default_rng(seqs[-1])
        mains_vals = mains_vals + noise_rng.normal(0.0, scenario.noise_std, scenario.duration)
        mains_vals = np.clip(mains_vals, 0.0, None)
    mains = PowerSeries(scenario.start_time, scenario.period, mains_vals)
    appliances = [
        PowerSeries(scenario.start_time, scenario.period, vals) for vals in traces
    ]
    return mains, appliances, state_seqs


def save_scenario(scenario: SyntheticScenario, path) -> None:
    doc = {
        "appliances": [
            {
                "name": a.name,
                "centroids": a.centroids,
                "mean_on_duration": a.mean_on_duration,
                "activation_rate": a.activation_rate,
            }
            for a in scenario.appliances
        ],
        "duration": scenario.duration,
        "period": scenario.period,
        "unknown_load": scenario.unknown_load,
        "noise_std": scenario.noise_std,
        "start_time": scenario.start_time,
        "seed": scenario.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> SyntheticScenario:
    with open(path, "r", encoding="utf-8") as fh:
        doc = check_keys(json.load(fh), str(path), ("appliances", "duration"),
                         ("period", "unknown_load", "noise_std", "start_time", "seed"))
    if not isinstance(doc["appliances"], list):
        raise ValueError(f"{path}: key 'appliances' must hold a list")
    spec_keys = [f.name for f in fields(ApplianceSpec)]
    return SyntheticScenario(
        appliances=[ApplianceSpec(**check_keys(a, f"{path}: appliances[{i}]", spec_keys))
                    for i, a in enumerate(doc["appliances"])],
        duration=int(doc["duration"]),
        period=int(doc.get("period", 6)),
        unknown_load=float(doc.get("unknown_load", 0.0)),
        noise_std=float(doc.get("noise_std", 0.0)),
        start_time=int(doc.get("start_time", 0)),
        seed=int(doc.get("seed", 0)),
    )


def demo_scenario(duration: int = 200_000, seed: int = 7) -> SyntheticScenario:
    """Two appliances at 5% duty on a 6 s grid: a two-state 150 W heater
    and a three-state pump drawing 80 or 400 W, under 10 W gaussian noise
    and a 20 W unmetered load."""
    mean_on = 50.0
    rate = activation_rate_for_duty(0.05, mean_on)
    return SyntheticScenario(
        appliances=[
            ApplianceSpec("heater", [0.0, 150.0], mean_on, rate),
            ApplianceSpec("pump", [0.0, 80.0, 400.0], mean_on, rate),
        ],
        duration=duration,
        period=6,
        unknown_load=20.0,
        noise_std=10.0,
        seed=seed,
    )
