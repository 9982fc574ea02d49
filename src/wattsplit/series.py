"""Uniform-grid power series: CSV I/O, gap filling, normalization.

A series holds float64 watt readings on a fixed grid (``start_time`` epoch
seconds, positive integer ``period``). Missing readings are NaN until
``fill_gaps`` resolves them; downstream code requires fully filled series.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PowerSeries",
    "load_csv",
    "save_csv",
    "save_columns",
    "fill_gaps",
    "normalize",
    "denormalize",
    "check_memory",
    "SHORT_GAP_LIMIT_S",
]

SHORT_GAP_LIMIT_S = 180
WRITE_BLOCK_ROWS = 32_768  # rows formatted per write by save_columns


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

    Accepted format: UTF-8 text, with or without a byte-order mark, one
    ``epoch_seconds,watts`` row per line, exactly two comma-separated
    numeric fields (whitespace around a field is ignored; a numeral must be
    ASCII and without ``_`` separators, as numpy's reader takes it). Blank and whitespace-only lines are skipped.
    Line 1 is a header, and skipped, when its first field is not a number;
    otherwise it is a data row like any other. A negative power, or a row
    that breaks these rules, raises a ``ValueError`` naming its line.
    Timestamps must be strictly increasing, and a file whose span implies
    a grid larger than the machine's physical memory is refused before the
    grid is built.

    Values resample onto the grid ``start + i * expected_period`` by
    forward fill when the enclosing row gap is <= expected_period; grid
    points inside larger holes are missing.
    """
    if expected_period <= 0:
        raise ValueError(f"expected_period must be positive, got {expected_period}")
    with open(path, "r", encoding="utf-8-sig") as fh:
        head = fh.readline()
        rows = itertools.filterfalse(str.isspace, fh)
        if head.strip() and _is_number(head.split(",")[0]):
            rows = itertools.chain([head], rows)
        first = next(rows, None)  # np.loadtxt only warns on no rows
        if first is None:
            raise ValueError(f"{path}: no data rows")
        try:
            table = np.loadtxt(itertools.chain([first], rows), delimiter=",",
                               comments=None, ndmin=2)
            if table.shape[1] != 2 or np.any(table[:, 1] < 0):
                raise ValueError(f"{path}: a row without two fields or with negative power")
        except ValueError:
            _raise_first_bad_row(path)
            raise  # the rescan found no row to name
    ts, vs = table.T
    if not np.all(np.diff(ts) > 0):
        bad = int(np.argmin(np.diff(ts) > 0)) + 1
        raise ValueError(f"{path}: non-monotone timestamps around row {bad + 1}")
    n = (ts[-1] - ts[0]) // expected_period + 1
    check_memory(n * 8, f"{path}: timestamps {ts[0]:.0f} to {ts[-1]:.0f} imply a grid "
                        f"of {n:.0f} samples of {expected_period} s")
    grid = ts[0] + expected_period * np.arange(int(n))
    idx = np.searchsorted(ts, grid, side="right") - 1  # latest row <= grid point
    exact = ts[idx] == grid
    next_gap = np.diff(ts, append=np.inf)[idx]
    present = exact | (next_gap <= expected_period)
    values = np.where(present, vs[idx], np.nan)
    return PowerSeries(int(ts[0]), expected_period, values)


def physical_memory() -> int:
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes, what: str) -> None:
    """Refuse arrays of ``nbytes`` that an input implies, before they are
    built, when they would not fit in physical memory (or ``nbytes`` is not
    finite): a ValueError that says ``what`` implied them."""
    memory = physical_memory()
    if not nbytes <= memory:
        size = f"{nbytes:.0f}" if isinstance(nbytes, float) else nbytes
        raise ValueError(f"{what} ({size} bytes), more than the machine's "
                         f"{memory} bytes of physical memory")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _raise_first_bad_row(path) -> None:
    """Rescan ``path`` row by row and raise for its first bad line, if any.

    The error path of ``load_csv``: a field counts as numeric when numpy's
    reader would take it, which is ``float()`` less underscores and
    non-ASCII digits.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1 and not _is_number(parts[0]):
                continue  # header
            if len(parts) != 2 or not all(
                    p.strip().isascii() and "_" not in p and _is_number(p) for p in parts):
                raise ValueError(f"{path}: unparseable row at line {lineno}: {line!r}")
            if float(parts[1]) < 0:
                raise ValueError(f"{path}: negative power at line {lineno}: {line!r}")


def save_csv(series: PowerSeries, path) -> None:
    if series.has_missing():
        raise ValueError("cannot save a series with missing values")
    save_columns(path, "%d,%.6f\n", [series.timestamps(), series.values])


def save_columns(path, row_format: str, columns, header: str | None = None) -> None:
    """Write one ``row_format % row`` line per row of equal-length ``columns``.

    Rows are formatted ``WRITE_BLOCK_ROWS`` at a time from the columns'
    ``tolist()`` values, so the bytes are those of formatting each row's
    Python ints and floats, and temporary memory stays bounded.
    """
    width = len(columns)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for lo in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = [c[lo:lo + WRITE_BLOCK_ROWS].tolist() for c in columns]
            cells = [None] * (width * len(block[0]))
            for j, col in enumerate(block):
                cells[j::width] = col
            fh.write((row_format * len(block[0])) % tuple(cells))


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
