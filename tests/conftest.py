"""Shared test helpers: finite differences, scalar-loop references and a
scenario file writer."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of scalar f at x by central differences, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   floor: float = 1e-6) -> float:
    """max |a - n| / max(|n|, floor): the floor keeps near-zero gradients
    from exploding the ratio."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(n), floor)
    return float(np.max(np.abs(a - n) / denom))


def conv1d_scalar(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                  stride: int = 1) -> np.ndarray:
    """Triple-loop valid convolution reference, channels-last: x [length,
    channels_in] and kernels [channels_out, channels_in, k] give
    [out_length, channels_out]."""
    length, cin = x.shape
    cout, _, k = kernels.shape
    out_len = (length - k) // stride + 1
    out = np.zeros((out_len, cout))
    for c in range(cout):
        for t in range(out_len):
            acc = bias[c]
            for ci in range(cin):
                for j in range(k):
                    acc += kernels[c, ci, j] * x[t * stride + j, ci]
            out[t, c] = acc
    return out


def median_filter_scalar(states: np.ndarray, window: int) -> np.ndarray:
    """Brute-force reference: per-state binary median over a centered
    window that shrinks symmetrically at the edges, then majority vote."""
    total, l = states.shape
    half = window // 2
    out = np.zeros_like(states)
    for t in range(total):
        ht = min(half, t, total - 1 - t)
        chunk = states[t - ht : t + ht + 1]
        counts = chunk.sum(axis=0)
        out[t, int(np.argmax(counts))] = 1.0
    return out


def cross_entropy_scalar(probs: np.ndarray, targets: np.ndarray,
                         clip: float = 1e-12) -> float:
    """Scalar-loop categorical cross entropy averaged over rows."""
    p2 = probs.reshape(-1, probs.shape[-1])
    t2 = targets.reshape(-1, targets.shape[-1])
    total = 0.0
    for i in range(p2.shape[0]):
        for j in range(p2.shape[1]):
            total -= t2[i, j] * np.log(max(p2[i, j], clip))
    return total / p2.shape[0]


def combine_scalar(ratings: np.ndarray, probs: np.ndarray) -> np.ndarray:
    s, l = probs.shape
    out = np.zeros(s)
    for t in range(s):
        for j in range(l):
            out[t] += probs[t, j] * ratings[j]
    return out


def mae_scalar(truth: np.ndarray, est: np.ndarray) -> float:
    total = 0.0
    for a, b in zip(truth, est):
        total += abs(a - b)
    return total / len(truth)


def write_scenario(scenario, path) -> None:
    """Write ``scenario`` as the JSON document ``synth.load_scenario`` reads."""
    Path(path).write_text(json.dumps(dataclasses.asdict(scenario)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
