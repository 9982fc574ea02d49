"""Uniform-grid power series: CSV I/O, gap filling, series checks.

A series holds float64 watt readings on a fixed grid (``start_time`` epoch
seconds, positive integer ``period``). Missing readings are NaN until
``fill_gaps`` resolves them; downstream code requires fully filled series
(``PowerSeries.require_filled``) that share one grid (``check_aligned``).
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PowerSeries",
    "load_csv",
    "save_csv",
    "save_columns",
    "fill_gaps",
    "check_aligned",
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

    def require_filled(self, what: str) -> None:
        """Raise unless every reading is present: a ValueError that names
        the series as ``what``."""
        if np.isnan(self.values).any():
            raise ValueError(f"{what} has missing values; run fill_gaps first")

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
    ASCII and without ``_`` separators, as numpy's reader takes it). Blank
    and whitespace-only lines are skipped.
    Line 1 is a header, and skipped, when its first field is not a number;
    otherwise it is a data row like any other. A negative power, or a row
    that breaks these rules, raises a ``ValueError`` naming its line.
    Timestamps must be strictly increasing, and a file whose span implies
    a grid larger than the machine's physical memory is refused before the
    grid is built.

    After the header check, ``np.loadtxt`` iterates the open file itself.
    It skips empty lines but refuses whitespace-only ones, so when it fails
    ``_read_rows`` reads the file again line by line: it raises for the
    first bad line, or returns the rows.

    Values resample onto the grid ``start + i * expected_period`` by
    forward fill when the enclosing row gap is <= expected_period; grid
    points inside larger holes are missing.
    """
    if expected_period <= 0:
        raise ValueError(f"expected_period must be positive, got {expected_period}")
    try:
        table = _read_table(path)
    except ValueError:
        table = _read_rows(path)
    if len(table) == 0:
        raise ValueError(f"{path}: no data rows")
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


def _read_table(path) -> np.ndarray:
    """The ``[rows, 2]`` table of ``path`` after its header line, if any,
    as numpy's reader takes it (``[0, 1]`` for a file without rows)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        head = fh.readline()
        if head.strip() and _is_number(head.split(",")[0]):
            fh.seek(0)  # line 1 is data
        with warnings.catch_warnings():  # an input without rows only warns
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if len(table) and (table.shape[1] != 2 or np.any(table[:, 1] < 0)):
        raise ValueError(f"{path}: a row without two fields or with negative power")
    return table


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


def _read_rows(path) -> np.ndarray:
    """The ``[rows, 2]`` table of ``path``, read line by line, or a
    ValueError that names its first bad line: ``load_csv``'s reader when
    numpy's refuses the file. It skips whitespace-only lines too.

    A field counts as numeric when numpy's reader would take it, which is
    ``float()`` less underscores and non-ASCII digits. Bytes that are not
    UTF-8 decode to lone surrogates, so the line that holds them is named.
    """
    rows = []
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}: line {lineno} is not UTF-8 text") from None
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1 and not _is_number(parts[0]):
                continue  # header
            if len(parts) != 2 or not all(
                    p.strip().isascii() and "_" not in p and _is_number(p) for p in parts):
                raise ValueError(f"{path}: unparseable row at line {lineno}: {line!r}")
            row = [float(p) for p in parts]
            if row[1] < 0:
                raise ValueError(f"{path}: negative power at line {lineno}: {line!r}")
            rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def check_aligned(a: PowerSeries, b: PowerSeries, names) -> None:
    """Raise unless ``a`` and ``b`` share one grid (start, period and
    length): a ValueError that calls them by the two ``names``."""
    if (a.start_time, a.period, len(a)) != (b.start_time, b.period, len(b)):
        raise ValueError(f"{names[0]} and {names[1]} are misaligned: start {a.start_time} "
                         f"vs {b.start_time}, period {a.period} vs {b.period}, "
                         f"length {len(a)} vs {len(b)}")


def save_csv(series: PowerSeries, path) -> None:
    series.require_filled("series")
    save_columns(path, [series.timestamps(), series.values])


def save_columns(path, columns, header: str | None = None) -> None:
    """Write one line per row of equal-length ``columns``, comma-separated:
    an integer column's cells as ``%d``, a float column's as ``%.6f``.

    The bytes are those of ``%`` on each row's Python ints and floats. Rows
    are formatted in numpy, ``WRITE_BLOCK_ROWS`` at a time, so temporary
    memory stays bounded: each block is laid out one row per byte position
    and compressed once. Integers take their digits from a table of 4-digit
    groups. A ``%.6f`` cell is ``rint(|x| * 1e6)`` split into its integer
    part and 6 fraction digits, which is Python's correctly rounded result
    unless ``|x| * 1e6`` is not finite, at least 2**52, or within its own
    rounding error of a half-integer. Those cells, and negative integers,
    are formatted by ``%`` and spliced in.
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    for c in columns:
        if c.ndim != 1 or len(c) != rows or c.dtype.kind not in "iuf":
            raise ValueError("columns must be 1-D integer or float arrays of one length")
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.encode("utf-8") + b"\n")
        for lo in range(0, rows, WRITE_BLOCK_ROWS):
            fh.write(_format_rows([c[lo:lo + WRITE_BLOCK_ROWS] for c in columns]))


# _GROUP_DIGITS[k, g]: the ASCII code of digit k of ``f"{g:04d}"``
_GROUP_DIGITS = (48 + np.arange(10_000) // np.array([[1000], [100], [10], [1]]) % 10
                 ).astype(np.uint8)


def _digit_rows(values: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of non-negative integers below ``10**width``, zero
    padded: ``[width, n]``, most significant first; ``width % 4 == 0``."""
    rows = np.empty((width, len(values)), np.uint8)
    rest = values
    for at in range(width - 4, -1, -4):
        group = rest
        if at:
            rest, group = np.divmod(rest, 10_000)
        for k in range(4):
            np.take(_GROUP_DIGITS[k], group, out=rows[at + k])
    return rows


def _significant(digits: np.ndarray) -> np.ndarray:
    """Which of ``_digit_rows``' digits remain once leading zeros go."""
    keep = digits != ord("0")
    keep[-1] = True
    for j in range(1, len(keep)):  # np.logical_or.accumulate along axis 0 is slower
        np.logical_or(keep[j - 1], keep[j], out=keep[j])
    return keep


def _digit_width(top, least: int) -> int:
    return max(least, -(-len(str(int(top))) // 4) * 4)


def _cells(column: np.ndarray):
    """``(chars, keep, special)``: one column's cells laid out ``[width, n]``,
    the bytes each keeps, and the cells that ``%`` must format."""
    if column.dtype.kind in "iu":
        special = column < 0
        magnitude = np.where(special, 0, column) if special.any() else column
        chars = _digit_rows(magnitude, _digit_width(magnitude.max(), 4))
        return chars, _significant(chars), special
    x = column.astype(np.float64, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(x) * 1e6
    special = ~(y < 2.0 ** 52)  # also inf and nan
    if special.any():
        y[special] = 0.0
    special |= np.abs(y - np.floor(y) - 0.5) <= y * 2.0 ** -50
    q = np.rint(y).astype(np.int64)
    digits = _digit_rows(q, _digit_width(q.max(), 8))
    point = len(digits) - 6
    chars = np.empty((len(digits) + 2, len(x)), np.uint8)  # sign, digits, ".", 6 digits
    chars[0], chars[point + 1] = ord("-"), ord(".")
    chars[1:point + 1], chars[point + 2:] = digits[:point], digits[point:]
    keep = np.ones(chars.shape, bool)
    keep[0] = np.signbit(x)
    keep[1:point + 1] = _significant(digits[:point])
    return chars, keep, special


def _format_rows(columns) -> bytes:
    """The bytes of ``save_columns``' lines for one block of rows."""
    n = len(columns[0])
    chars, keep, starts, specials = [], [], [], []
    at = 0
    for j, column in enumerate(columns):
        c, k, special = _cells(column)
        k[:, special] = False
        starts.append(at)
        specials.append(special)
        at += len(c) + 1
        chars += [c, np.full((1, n), ord("\n" if j == len(columns) - 1 else ","), np.uint8)]
        keep += [k, np.ones((1, n), bool)]
    chars, keep = np.concatenate(chars), np.concatenate(keep)
    data = chars.T[keep.T].tobytes()
    rows, cols = np.nonzero(np.stack(specials, axis=1))  # in the order they are written
    if len(rows) == 0:
        return data
    before = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=0))))
    parts, done = [], 0
    for r, j in zip(rows.tolist(), cols.tolist()):
        at = int(before[r] + np.count_nonzero(keep[:starts[j], r]))
        fmt = "%d" if columns[j].dtype.kind in "iu" else "%.6f"
        parts += [data[done:at], (fmt % columns[j][r].item()).encode()]
        done = at
    parts.append(data[done:])
    return b"".join(parts)


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
