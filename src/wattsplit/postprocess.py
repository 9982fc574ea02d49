"""State-sequence post-processing: hard gating, gumbel noise, median
filtering, and overlap merging.

State sequences are plain arrays with one row per timestep and one column
per state: soft rows sum to 1, hard rows are exactly one-hot. Any leading
batch axes come first, so a batch of windows is ``[B, s, l]``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FilterConfig",
    "hard_gate",
    "sample_gumbel",
    "median_filter",
    "combine_hard",
    "reconcile_overlaps",
]


@dataclass(frozen=True)
class FilterConfig:
    median_window: int = 5

    def __post_init__(self):
        if self.median_window < 3 or self.median_window % 2 == 0:
            raise ValueError(
                f"median_window must be odd and >= 3, got {self.median_window}"
            )


def _one_hot_sequences(states, op: str) -> np.ndarray:
    """State sequences ``[..., T, l]`` whose rows must be exactly one-hot."""
    rows = np.asarray(states, dtype=np.float64)
    if rows.ndim < 2:
        raise ValueError(f"{op}: expected rows of shape [..., T, l], got {rows.shape}")
    binary = (rows == 0.0) | (rows == 1.0)
    if not (np.all(binary) and np.all(rows.sum(axis=-1) == 1.0)):
        raise ValueError(f"{op}: rows must be exactly one-hot")
    return rows


def hard_gate(probabilities) -> np.ndarray:
    """Replace each probability row (last axis, any leading shape) with the
    one-hot of its argmax (ties resolve to the lowest index). Idempotent."""
    rows = np.asarray(probabilities, dtype=np.float64)
    if rows.ndim == 0 or rows.size == 0:
        raise ValueError("hard_gate: empty input")
    sums = rows.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= 1e-6):
        raise ValueError("hard_gate: rows must sum to 1 within 1e-6")
    return np.eye(rows.shape[-1])[np.argmax(rows, axis=-1)]


def sample_gumbel(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard gumbel noise g = -log(-log u), u ~ U(0, 1)."""
    u = rng.random(shape)
    tiny = np.finfo(np.float64).tiny
    return -np.log(-np.log(np.maximum(u, tiny)) + tiny)


def median_filter(states, cfg: FilterConfig = FilterConfig()) -> np.ndarray:
    """Majority state over a centered window, per timestep.

    ``states`` holds one-hot rows of shape ``[..., T, l]``; each sequence
    along the time axis (-2) is filtered on its own. Equivalent to taking
    the per-state binary median over the window and renormalizing to
    one-hot: at most one state can hold a strict majority of an odd
    window, and when one does it wins the vote. When no state has a
    majority the most frequent state in the window wins (lowest index on
    ties), so the output state always occurs inside the window. Windows
    shrink symmetrically at the boundaries (length stays odd).
    """
    rows = _one_hot_sequences(states, "median_filter")
    total, l = rows.shape[-2:]
    half = cfg.median_window // 2
    csum = np.zeros(rows.shape[:-2] + (total + 1, l))
    np.cumsum(rows, axis=-2, out=csum[..., 1:, :])
    t = np.arange(total)
    ht = np.minimum(half, np.minimum(t, total - 1 - t))
    counts = csum[..., t + ht + 1, :] - csum[..., t - ht, :]  # per-state occurrences
    return np.eye(l)[np.argmax(counts, axis=-1)]


def combine_hard(ratings, states) -> np.ndarray:
    """out[..., t] = ratings[..., state at t].

    ``states`` holds one-hot rows ``[..., s, l]`` and ``ratings`` one
    rating per state for each sequence, ``[..., l]``.
    """
    r = np.asarray(ratings, dtype=np.float64)
    rows = _one_hot_sequences(states, "combine_hard")
    if r.shape != rows.shape[:-2] + rows.shape[-1:]:
        raise ValueError(
            f"combine_hard: ratings shape {r.shape} does not match states "
            f"shape {rows.shape}"
        )
    return (rows @ r[..., None])[..., 0]


def reconcile_overlaps(window_outputs, total_length: int) -> np.ndarray:
    """Merge per-window output slices onto one series by per-position mean.

    ``window_outputs`` yields (start_index, values) pairs, summed in the
    order given. ``values`` has shape ``[s, ...]``: one entry, or one row
    of columns, per position; every window shares the trailing shape.
    Every position in [0, total_length) must be covered by at least one
    window. Returns ``[total_length, ...]``.
    """
    if total_length < 1:
        raise ValueError(f"total_length must be >= 1, got {total_length}")
    acc = None
    cover = np.zeros(total_length)
    for start, vals in window_outputs:
        vals = np.asarray(vals, dtype=np.float64)
        if acc is None:
            acc = np.zeros((total_length,) + vals.shape[1:])
        if vals.ndim == 0 or vals.shape[1:] != acc.shape[1:]:
            raise ValueError(f"window at {start}: values shape {vals.shape}, "
                             f"expected (s,) + {acc.shape[1:]}")
        if start < 0 or start + len(vals) > total_length:
            raise ValueError(
                f"window [{start}, {start + len(vals)}) exceeds length {total_length}"
            )
        acc[start : start + len(vals)] += vals
        cover[start : start + len(vals)] += 1.0
    if np.any(cover == 0):
        idx = int(np.argmax(cover == 0))
        raise ValueError(f"position {idx} is not covered by any window")
    return acc / cover.reshape((-1,) + (1,) * (acc.ndim - 1))
