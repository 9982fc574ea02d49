"""Windowing: padded input windows aligned to output targets.

Each training example pairs an input window of length s + 2w (the output
span plus w context samples on each side, out-of-range context padded with
the normalized 0 W value) with the s-sample appliance target it predicts.
Input position w lines up with target position 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .series import PowerSeries, check_aligned
from .states import ApplianceStateModel, label_states

__all__ = ["WindowConfig", "WindowedExample", "make_windows", "input_window",
           "shared_rows"]


@dataclass(frozen=True)
class WindowConfig:
    s: int  # output window length, samples
    w: int  # context on each side, samples

    def __post_init__(self):
        if int(self.s) != self.s or self.s < 1:
            raise ValueError(f"s must be an integer >= 1, got {self.s}")
        if int(self.w) != self.w or self.w < 0:
            raise ValueError(f"w must be an integer >= 0, got {self.w}")

    @property
    def input_length(self) -> int:
        return self.s + 2 * self.w


@dataclass
class WindowedExample:
    input: np.ndarray          # [s + 2w] normalized mains
    target_power: np.ndarray   # [s] normalized appliance power
    target_states: np.ndarray  # [s, l] one-hot


def input_window(values: np.ndarray, start, cfg: WindowConfig,
                 pad_value: float) -> np.ndarray:
    """Input windows covering [start - w, start + s + w); out-of-range
    positions (negative ones included) take ``pad_value``.

    ``start`` is an integer or an integer array of starts; the result has
    shape ``start.shape + (s + 2w,)``, gathered in one indexing step.
    """
    values = np.asarray(values, dtype=np.float64)
    idx = np.asarray(start)[..., None] + np.arange(-cfg.w, cfg.s + cfg.w)
    out = values.take(idx, mode="clip") if len(values) else np.empty(idx.shape)
    out[(idx < 0) | (idx >= len(values))] = pad_value
    return out


def shared_rows(starts, cfg: WindowConfig, period: int):
    """Group the windows at ascending ``starts`` into shared input rows.

    A window joins the row of the previous window whose start differs from
    its own by a multiple of ``period`` (a conv stack's total stride), when
    their input windows overlap or touch; otherwise it opens a row. Returns
    ``(row_starts, rows, offsets, extent)``: row r covers the input windows
    at row_starts[r] + [0, extent] (``input_window`` with
    ``WindowConfig(extent + s, w)``), and window b starts ``offsets[b]``
    samples into row ``rows[b]``, a multiple of ``period``.
    """
    starts = np.asarray(starts)
    order = np.argsort((starts - starts[0]) % period, kind="stable")
    ordered = starts[order]
    opens = np.ones(len(starts), dtype=bool)
    opens[1:] = ((np.diff(ordered) % period != 0)
                 | (np.diff(ordered) > cfg.input_length))
    rows = np.empty(len(starts), dtype=np.int64)
    rows[order] = np.cumsum(opens) - 1
    row_starts = ordered[opens]
    offsets = starts - row_starts[rows]
    return row_starts, rows, offsets, int(offsets.max())


def make_windows(mains: PowerSeries, appliance: PowerSeries,
                 model: ApplianceStateModel, cfg: WindowConfig,
                 stride: int | None = None) -> Iterator[WindowedExample]:
    """Yield aligned training examples every ``stride`` samples.

    Both series are normalized with the model's statistics. A series
    shorter than s yields no windows. Mains and appliance must share the
    grid (start, period, length). All inputs are gathered by one
    ``input_window`` call, and the targets and labels by one index array;
    each example holds views of those arrays.
    """
    if stride is None:
        stride = cfg.s
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    check_aligned(mains, appliance, ("mains", "appliance"))
    mains.require_filled("mains")
    mains_norm = model.normalize(mains.values)
    app_norm = model.normalize(appliance.values)
    labels = label_states(appliance, model)
    starts = np.arange(0, len(mains) - cfg.s + 1, stride)
    inputs = input_window(mains_norm, starts, cfg, model.normalize(0.0))
    spans = starts[:, None] + np.arange(cfg.s)
    yield from map(WindowedExample, inputs, app_norm[spans], labels[spans])
