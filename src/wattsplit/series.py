"""Uniform-grid power series: CSV I/O, gap filling, normalization.

A series holds float64 watt readings on a fixed grid (``start_time`` epoch
seconds, positive integer ``period``). Missing readings are NaN until
``fill_gaps`` resolves them; downstream code requires fully filled series.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PowerSeries",
    "load_csv",
    "save_csv",
    "fill_gaps",
    "normalize",
    "denormalize",
    "SHORT_GAP_LIMIT_S",
]

SHORT_GAP_LIMIT_S = 180


@dataclass
class PowerSeries:
    start_time: int
    period: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if int(self.period) != self.period or self.period <= 0:
            raise ValueError(f"period must be a positive integer, got {self.period}")
        self.period = int(self.period)
        self.start_time = int(self.start_time)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {self.values.shape}")
        finite = self.values[~np.isnan(self.values)]
        if np.any(finite < 0) or np.any(np.isinf(finite)):
            raise ValueError("power values must be >= 0 (NaN marks missing)")

    def __len__(self) -> int:
        return len(self.values)

    def timestamps(self) -> np.ndarray:
        return self.start_time + self.period * np.arange(len(self.values))

    def has_missing(self) -> bool:
        return bool(np.any(np.isnan(self.values)))

    def slice(self, start: int, stop: int) -> "PowerSeries":
        """Sub-series over sample indices [start, stop)."""
        if not (0 <= start <= stop <= len(self.values)):
            raise ValueError(f"slice [{start}, {stop}) out of range for {len(self)}")
        return PowerSeries(self.start_time + start * self.period, self.period,
                           self.values[start:stop].copy())


def load_csv(path, expected_period: int) -> PowerSeries:
    """Read ``epoch_seconds,watts`` rows onto a uniform grid.

    Timestamps must be strictly increasing. Values resample onto the grid
    ``start + i * expected_period`` by forward fill when the enclosing row
    gap is <= expected_period; grid points inside larger holes are missing.
    An optional header line is skipped.
    """
    if expected_period <= 0:
        raise ValueError(f"expected_period must be positive, got {expected_period}")
    times: list[float] = []
    watts: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                t, v = float(parts[0]), float(parts[1])
            except (ValueError, IndexError):
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}: unparseable row at line {lineno}: {line!r}")
            if len(parts) != 2:
                raise ValueError(f"{path}: unparseable row at line {lineno}: {line!r}")
            if v < 0:
                raise ValueError(f"{path}: negative power at line {lineno}: {line!r}")
            times.append(t)
            watts.append(v)
    if not times:
        raise ValueError(f"{path}: no data rows")
    ts = np.asarray(times)
    vs = np.asarray(watts)
    if np.any(np.diff(ts) <= 0):
        bad = int(np.argmax(np.diff(ts) <= 0)) + 1
        raise ValueError(f"{path}: non-monotone timestamps around row {bad + 1}")
    n = int((ts[-1] - ts[0]) // expected_period) + 1
    grid = ts[0] + expected_period * np.arange(n)
    idx = np.searchsorted(ts, grid, side="right") - 1  # latest row <= grid point
    exact = ts[idx] == grid
    next_gap = np.diff(ts, append=np.inf)[idx]
    present = exact | (next_gap <= expected_period)
    values = np.where(present, vs[idx], np.nan)
    return PowerSeries(int(ts[0]), expected_period, values)


def save_csv(series: PowerSeries, path) -> None:
    if series.has_missing():
        raise ValueError("cannot save a series with missing values")
    with open(path, "w", encoding="utf-8") as fh:
        for t, v in zip(series.timestamps(), series.values):
            fh.write(f"{int(t)},{v:.6f}\n")


def fill_gaps(series: PowerSeries) -> PowerSeries:
    """Resolve missing runs: short ones backward-fill, long ones become 0.

    A run of k missing samples spans k * period seconds. Runs strictly
    shorter than ``SHORT_GAP_LIMIT_S`` take the first valid value after the
    run (0 when the run touches the end of the series); runs at or above
    the limit become 0. Idempotent; rejects an all-missing series.
    """
    vals = series.values.copy()
    missing = np.isnan(vals)
    if not missing.any():
        return PowerSeries(series.start_time, series.period, vals)
    if missing.all():
        raise ValueError("series is entirely missing")
    # run boundaries of the missing mask
    edges = np.flatnonzero(np.diff(np.concatenate(([0], missing.view(np.int8), [0]))))
    for lo, hi in zip(edges[::2], edges[1::2]):  # run is [lo, hi)
        duration = (hi - lo) * series.period
        if duration < SHORT_GAP_LIMIT_S and hi < len(vals):
            vals[lo:hi] = vals[hi]
        else:
            vals[lo:hi] = 0.0
    return PowerSeries(series.start_time, series.period, vals)


def _values_of(x) -> np.ndarray:
    return x.values if isinstance(x, PowerSeries) else np.asarray(x, dtype=np.float64)


def normalize(values, mean: float, std: float) -> np.ndarray:
    """(v - mean) / std. Accepts a PowerSeries or an array."""
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    return (_values_of(values) - mean) / std


def denormalize(values, mean: float, std: float) -> np.ndarray:
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    return _values_of(values) * std + mean
