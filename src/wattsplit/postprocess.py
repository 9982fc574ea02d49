"""State-sequence post-processing: hard gating, gumbel noise, median
filtering, and overlap merging.

A soft state sequence has one row per timestep and one column per state,
each row summing to 1. The hard gate turns it into a sequence of integer
state indices, one per timestep, which the median filter and
``combine_hard`` take. Any leading batch axes come first, so a batch of
windows is ``[B, s, l]`` soft or ``[B, s]`` hard.
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
    "window_cover",
]


@dataclass(frozen=True)
class FilterConfig:
    median_window: int = 5

    def __post_init__(self):
        if self.median_window < 3 or self.median_window % 2 == 0:
            raise ValueError(
                f"median_window must be odd and >= 3, got {self.median_window}"
            )


def hard_gate(probabilities) -> np.ndarray:
    """The state index of each probability row's argmax: rows ``[..., l]``
    (last axis, any leading shape) give indices ``[...]``. Ties resolve to
    the lowest index."""
    rows = np.asarray(probabilities, dtype=np.float64)
    if rows.ndim == 0 or rows.size == 0:
        raise ValueError("hard_gate: empty input")
    if not np.all(np.abs(rows.sum(axis=-1) - 1.0) <= 1e-6):
        raise ValueError("hard_gate: rows must sum to 1 within 1e-6")
    return np.argmax(rows, axis=-1)


def _state_indices(states, op: str) -> np.ndarray:
    """State index sequences ``[..., T]``: non-negative integers."""
    idx = np.asarray(states)
    if idx.ndim < 1:
        raise ValueError(f"{op}: expected state indices of shape [..., T], got {idx.shape}")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"{op}: expected integer state indices (the argmax of one-hot "
                         f"rows), got {idx.dtype} values")
    if idx.size and idx.min() < 0:
        raise ValueError(f"{op}: state indices must be >= 0, got {idx.min()}")
    return idx


def sample_gumbel(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard gumbel noise g = -log(-log u), u ~ U(0, 1)."""
    u = rng.random(shape)
    tiny = np.finfo(np.float64).tiny
    return -np.log(-np.log(np.maximum(u, tiny)) + tiny)


def median_filter(states, cfg: FilterConfig = FilterConfig()) -> np.ndarray:
    """Majority state over a centered window, per timestep.

    ``states`` holds state indices of shape ``[..., T]``; each sequence
    along the last axis is filtered on its own. Equivalent to taking the
    per-state binary median of the one-hot rows over the window and
    renormalizing to one-hot: at most one state can hold a strict majority
    of an odd window, and when one does it wins the vote. When no state has
    a majority the most frequent state in the window wins (lowest index on
    ties), so the output state always occurs inside the window. Windows
    shrink symmetrically at the boundaries (length stays odd). Each state's
    votes are differences of its integer cumulative count.
    """
    idx = _state_indices(states, "median_filter")
    total = idx.shape[-1]
    half = cfg.median_window // 2
    t = np.arange(total)
    ht = np.minimum(half, np.minimum(t, total - 1 - t))
    csum = np.zeros(idx.shape[:-1] + (total + 1,), dtype=np.int32)
    out = np.zeros(idx.shape, dtype=np.intp)
    for j in range(int(idx.max(initial=0)) + 1):
        np.cumsum(idx == j, axis=-1, dtype=np.int32, out=csum[..., 1:])
        votes = csum[..., t + ht + 1] - csum[..., t - ht]  # occurrences of state j
        if j == 0:
            best = votes
        else:
            out[votes > best] = j
            np.maximum(best, votes, out=best)
    return out


def combine_hard(ratings, states) -> np.ndarray:
    """out[..., t] = ratings[..., states[..., t]].

    ``states`` holds state indices ``[..., s]`` and ``ratings`` one rating
    per state for each sequence, ``[..., l]``.
    """
    r = np.asarray(ratings, dtype=np.float64)
    idx = _state_indices(states, "combine_hard")
    if r.shape[:-1] != idx.shape[:-1] or idx.max(initial=0) >= r.shape[-1]:
        raise ValueError(
            f"combine_hard: ratings shape {r.shape} does not fit state indices "
            f"of shape {idx.shape} (largest {idx.max(initial=0)})"
        )
    return np.take_along_axis(r, idx, axis=-1)


def reconcile_overlaps(sums, starts, values) -> None:
    """Add one batch of windows onto running per-position sums, in place.

    ``values[k]`` is the output of the window that starts at ``starts[k]``,
    ``[B, s, ...]``: one entry, or one row of columns, per position.
    Windows are added in the order given, and ``np.add.at`` applies a
    position's repeated entries one after another, so every position's sum
    is bitwise the one that a loop over the windows builds. A float
    ``sums`` is ``[T, ...]`` with the values' trailing shape. An integer
    ``sums`` ``[T, l]`` counts votes: ``values`` are then ``[B, s]`` state
    indices, and each adds 1 at its position and state. ``sums`` must be
    C-contiguous.
    """
    values, starts = np.asarray(values), np.asarray(starts)
    if values.ndim < 2 or values.shape[0] != len(starts):
        raise ValueError(f"values shape {values.shape}: expected one [s, ...] window "
                         f"for each of {len(starts)} starts")
    if not sums.flags.c_contiguous:
        raise ValueError("reconcile_overlaps: sums must be C-contiguous")
    s, total = values.shape[1], len(sums)
    votes = sums.dtype.kind in "iu"
    if values.shape[2:] != (() if votes else sums.shape[1:]):
        raise ValueError(f"window at {starts[0]}: values shape {values.shape[1:]}, "
                         f"expected (s,) + {() if votes else sums.shape[1:]}")
    bad = (starts < 0) | (starts + s > total)
    if np.any(bad):
        start = int(starts[np.argmax(bad)])
        raise ValueError(f"window [{start}, {start + s}) exceeds length {total}")
    pos = (starts[:, None] + np.arange(s)).ravel()
    flat = sums.reshape(total, -1)
    if votes:
        _state_indices(values, "reconcile_overlaps")
        if values.max() >= flat.shape[1]:
            raise ValueError(f"reconcile_overlaps: state index {values.max()} beyond "
                             f"the {flat.shape[1]} vote columns")
        # a scalar of the sums' own dtype keeps np.add.at on its fast path
        np.add.at(flat.reshape(-1), pos * flat.shape[1] + values.ravel(),
                  sums.dtype.type(1))
    else:
        columns = values.reshape(len(pos), -1)
        for j in range(flat.shape[1]):
            np.add.at(flat[:, j], pos, columns[:, j])


def window_cover(starts, length: int, total: int) -> np.ndarray:
    """How many windows cover each position of ``[0, total)``: the window
    at each of ``starts`` covers ``length`` positions. A merge's
    per-position mean divides its sums by this, so every position must be
    covered.
    """
    starts = np.asarray(starts, dtype=np.intp)
    ends = starts + length
    if np.any(starts < 0) or np.any(ends > total):
        raise ValueError(f"windows must lie within [0, {total})")
    cover = np.cumsum(np.bincount(starts, minlength=total + 1)
                      - np.bincount(ends, minlength=total + 1))[:-1]
    if not cover.all():
        raise ValueError(f"position {int(np.argmin(cover))} is not covered by any window")
    return cover
