"""Appliance state models: k-means rating discovery and state labeling.

An appliance with l states has one OFF state (rating fixed at 0 W) and
l - 1 ON states whose ratings come from 1-D k-means over the readings
above the ON threshold. Normalization statistics travel with the model,
which normalizes the watts both subnetworks read and denormalizes their
output.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .series import PowerSeries

__all__ = [
    "ApplianceStateModel",
    "cluster_states",
    "label_states",
    "save_state_model",
    "load_state_model",
    "check_keys",
    "check_value",
    "ON_THRESHOLD_W",
]

ON_THRESHOLD_W = 15.0
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300


@dataclass
class ApplianceStateModel:
    name: str
    centroids: np.ndarray  # watts, ascending, centroids[0] == 0
    norm_mean: float
    norm_std: float
    on_threshold: float = ON_THRESHOLD_W

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 1 or len(self.centroids) < 2:
            raise ValueError("need at least 2 centroids (OFF plus one ON state)")
        if self.centroids[0] != 0.0:
            raise ValueError(f"centroids[0] must be 0, got {self.centroids[0]}")
        if np.any(np.diff(self.centroids) <= 0):
            raise ValueError(f"centroids must be strictly increasing: {self.centroids}")
        if self.norm_std <= 0:
            raise ValueError(f"norm_std must be > 0, got {self.norm_std}")

    @property
    def state_count(self) -> int:
        return len(self.centroids)

    def normalize(self, watts) -> np.ndarray:
        """``(watts - norm_mean) / norm_std``."""
        return (np.asarray(watts, dtype=np.float64) - self.norm_mean) / self.norm_std

    def denormalize(self, values) -> np.ndarray:
        """Watts from normalized ``values``: ``values * norm_std + norm_mean``."""
        return np.asarray(values, dtype=np.float64) * self.norm_std + self.norm_mean


def _kmeans_1d(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """1-D k-means: farthest-point seeding, best SSE over ``KMEANS_RESTARTS``.

    Convergence is declared when the assignment vector stops changing, or
    after ``KMEANS_MAX_ITER`` iterations. Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    best_sse = np.inf
    best_centers = None
    for _ in range(KMEANS_RESTARTS):
        centers = np.empty(k)
        centers[0] = points[rng.integers(len(points))]
        mindist = np.abs(points - centers[0])
        for j in range(1, k):
            centers[j] = points[np.argmax(mindist)]
            mindist = np.minimum(mindist, np.abs(points - centers[j]))
        assign = None
        for _ in range(KMEANS_MAX_ITER):
            dist = np.abs(points[:, None] - centers[None, :])
            new_assign = np.argmin(dist, axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(k):
                members = points[assign == j]
                if len(members):
                    centers[j] = members.mean()
                else:  # re-seed an empty cluster at the worst-fit point
                    centers[j] = points[np.argmax(np.abs(points - centers[assign]))]
        sse = float(np.sum((points - centers[assign]) ** 2))
        if sse < best_sse:
            best_sse = sse
            best_centers = centers.copy()
    return np.sort(best_centers)


def cluster_states(series: PowerSeries, state_count: int,
                   on_threshold: float = ON_THRESHOLD_W, seed: int = 0,
                   name: str = "appliance") -> ApplianceStateModel:
    """Build a state model from an appliance series.

    Clusters only readings strictly above ``on_threshold`` into
    state_count - 1 ON ratings; the OFF rating is fixed at 0 W.
    Normalization statistics are the full-series mean and population std.
    """
    series.require_filled("series")
    values = series.values
    if state_count < 2:
        raise ValueError(f"state_count must be >= 2, got {state_count}")
    on_values = values[values > on_threshold]
    k = state_count - 1
    distinct = np.unique(on_values)
    if len(distinct) < k:
        raise ValueError(
            f"need at least {k} distinct readings above {on_threshold} W, "
            f"found {len(distinct)}"
        )
    on_centroids = _kmeans_1d(on_values, k, seed)
    std = float(values.std())
    if std <= 0:
        raise ValueError("series is constant; cannot derive normalization std")
    return ApplianceStateModel(
        name=name,
        centroids=np.concatenate(([0.0], on_centroids)),
        norm_mean=float(values.mean()),
        norm_std=std,
        on_threshold=float(on_threshold),
    )


def label_states(series: PowerSeries, model: ApplianceStateModel) -> np.ndarray:
    """One-hot state labels [T, l]: nearest centroid, ties to the lower
    index, readings at or below the ON threshold forced to OFF."""
    series.require_filled("appliance")
    v = series.values
    idx = np.argmin(np.abs(v[:, None] - model.centroids[None, :]), axis=1)
    idx[v <= model.on_threshold] = 0
    return np.eye(model.state_count, dtype=np.float64)[idx]


def save_state_model(model: ApplianceStateModel, path) -> None:
    doc = {
        "name": model.name,
        "state_count": model.state_count,
        "centroids": [float(c) for c in model.centroids],
        "norm_mean": model.norm_mean,
        "norm_std": model.norm_std,
        "on_threshold": model.on_threshold,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# the names of the JSON kinds in error messages, singular and plural
_KIND_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), bool: ("true or false", "booleans"),
               list: ("a list", "lists"), None: ("null", "nulls")}


def _fits(value, kind) -> bool:
    if type(kind) is tuple:
        return any(_fits(value, k) for k in kind)
    if type(kind) is list:
        return type(value) is list and all(_fits(v, kind[0]) for v in value)
    if kind is None:
        return value is None
    if kind is float:  # json reads NaN, Infinity and integers beyond any float
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def _kind_name(kind, plural: bool = False) -> str:
    if type(kind) is tuple:
        return " or ".join(_kind_name(k, plural) for k in kind)
    if type(kind) is list:
        return ("lists of " if plural else "a list of ") + _kind_name(kind[0], True)
    return _KIND_NAMES[kind][plural]


def check_value(where: str, key: str, value, kind) -> None:
    """Raise a ValueError that names ``where`` and ``key`` unless the JSON
    ``value`` fits ``kind``.

    A kind is ``int``, ``float``, ``str``, ``bool`` or ``list`` (its items
    unchecked), ``None`` for null, ``[k]`` for a list whose items each fit
    ``k``, or a tuple of kinds of which one must fit. A bool is not a
    number, an int is accepted as a float, and a float must be finite
    (JSON's ``NaN`` and ``Infinity``, and integers beyond the largest
    float, are refused).
    """
    if not _fits(value, kind):
        raise ValueError(f"{where}: key {key!r} must hold {_kind_name(kind)}, "
                         f"got {value!r}")


def check_keys(doc, where: str, kinds: dict, optional=()) -> dict:
    """``doc``, if it is a JSON object that holds every key of ``kinds`` but
    those in ``optional``, no other key, and under each key a value that
    fits its kind (``check_value``); else a ValueError that names ``where``
    and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    for key in kinds:
        if key not in doc and key not in optional:
            raise ValueError(f"{where}: missing key {key!r}")
    for key, value in doc.items():
        if key not in kinds:
            raise ValueError(f"{where}: unknown key {key!r}")
        check_value(where, key, value, kinds[key])
    return doc


def load_state_model(path) -> ApplianceStateModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = check_keys(json.load(fh), str(path),
                         {"name": str, "state_count": int, "centroids": [float],
                          "norm_mean": float, "norm_std": float, "on_threshold": float},
                         ("on_threshold",))
    model = ApplianceStateModel(
        name=doc["name"],
        centroids=np.asarray(doc["centroids"], dtype=np.float64),
        norm_mean=float(doc["norm_mean"]),
        norm_std=float(doc["norm_std"]),
        on_threshold=float(doc.get("on_threshold", ON_THRESHOLD_W)),
    )
    if doc["state_count"] != model.state_count:
        raise ValueError(
            f"{path}: state_count {doc['state_count']} does not match "
            f"{model.state_count} centroids"
        )
    return model
