"""Series container, CSV grid resampling, gap filling, normalization."""
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wattsplit import series as series_module
from wattsplit.cli import _save_state_indices
from wattsplit.series import (PowerSeries, denormalize, fill_gaps, load_csv,
                              normalize, save_columns, save_csv)


def write_rows(tmp_path, rows, name="series.csv"):
    path = tmp_path / name
    path.write_text("".join(f"{t},{v}\n" for t, v in rows))
    return path


class TestPowerSeries:
    def test_period_must_be_positive_integer(self):
        with pytest.raises(ValueError, match="period"):
            PowerSeries(0, 0, np.zeros(3))
        with pytest.raises(ValueError, match="period"):
            PowerSeries(0, -6, np.zeros(3))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            PowerSeries(0, 6, np.array([1.0, -0.5]))

    def test_nan_marks_missing(self):
        s = PowerSeries(0, 6, np.array([1.0, np.nan]))
        assert s.has_missing()

    def test_timestamps(self):
        s = PowerSeries(100, 6, np.zeros(4))
        np.testing.assert_array_equal(s.timestamps(), [100, 106, 112, 118])

    def test_slice_shifts_start(self):
        s = PowerSeries(100, 6, np.arange(10, dtype=float))
        sub = s.slice(2, 5)
        assert sub.start_time == 112
        np.testing.assert_array_equal(sub.values, [2.0, 3.0, 4.0])


class TestLoadCsv:
    def test_dense_rows_land_on_grid(self, tmp_path):
        path = write_rows(tmp_path, [(0, 5.0), (6, 7.0), (12, 9.0)])
        s = load_csv(path, 6)
        assert s.start_time == 0 and s.period == 6
        np.testing.assert_array_equal(s.values, [5.0, 7.0, 9.0])
        assert not s.has_missing()

    def test_large_hole_marks_interior_missing(self, tmp_path):
        # rows at 0 and 18: the 18 s hole exceeds the 6 s period, so the
        # interior grid points (6, 12) are missing
        path = write_rows(tmp_path, [(0, 5.0), (18, 9.0)])
        s = load_csv(path, 6)
        assert len(s) == 4
        assert s.values[0] == 5.0 and s.values[3] == 9.0
        assert np.isnan(s.values[1]) and np.isnan(s.values[2])

    def test_forward_fill_inside_small_gap(self, tmp_path):
        # native 1 Hz readings resampled to a 6 s grid
        path = write_rows(tmp_path, [(t, float(t)) for t in range(0, 19)])
        s = load_csv(path, 6)
        np.testing.assert_array_equal(s.values, [0.0, 6.0, 12.0, 18.0])

    def test_off_grid_rows_forward_fill(self, tmp_path):
        path = write_rows(tmp_path, [(0, 1.0), (5, 2.0), (11, 3.0), (12, 4.0)])
        s = load_csv(path, 6)
        # t=6 falls between rows 5 and 11 (gap 6 <= period): takes value at 5
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 4.0])

    def test_non_monotone_rejected(self, tmp_path):
        path = write_rows(tmp_path, [(0, 1.0), (12, 2.0), (6, 3.0)])
        with pytest.raises(ValueError, match="monotone"):
            load_csv(path, 6)

    def test_unparseable_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0\n6,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path, 6)

    @pytest.mark.parametrize("text, line", [
        # line 1 is data when its first field is a number, so a bad watts
        # field there is an error, not a header
        pytest.param("1600000000,oops\n1600000006,2.0\n1600000012,3.0\n", 1,
                     id="bad-watts-on-line-1"),
        pytest.param("0\n6,2.0\n", 1, id="one-field-on-line-1"),
        # numerals float() takes and numpy's reader does not
        pytest.param("0,1.0\n6,1_0\n", 2, id="underscore-watts"),
        pytest.param("1_0,1.0\n16,2.0\n", 1, id="underscore-time-on-line-1"),
        pytest.param("t,w\n0,1.0\n\n1_2,2.0\n", 4, id="underscore-after-header"),
        pytest.param("0,1.0\n6,\u0662\n", 2, id="non-ascii-digit"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"unparseable row at line {line}:"):
            load_csv(path, 6)

    def test_header_tolerated(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("timestamp,watts\n0,1.0\n6,2.0\n")
        s = load_csv(path, 6)
        np.testing.assert_array_equal(s.values, [1.0, 2.0])

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1600000000,5.0\n1600000006,2.0\n")
        s = load_csv(path, 6)
        assert s.start_time == 1600000000
        np.testing.assert_array_equal(s.values, [5.0, 2.0])
        # a header after the mark is still a header, and errors keep their line
        path.write_bytes(b"\xef\xbb\xbftimestamp,watts\n0,1.0\n6,oops\n")
        with pytest.raises(ValueError, match="unparseable row at line 3"):
            load_csv(path, 6)

    def test_negative_power_rejected(self, tmp_path):
        path = write_rows(tmp_path, [(0, 1.0), (6, -2.0)])
        with pytest.raises(ValueError, match="negative"):
            load_csv(path, 6)

    def test_blank_lines_and_crlf_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"timestamp,watts\r\n \t\r\n0, 1.0\r\n\n6,2.0 \r\n\xc2\xa0\n")
        np.testing.assert_array_equal(load_csv(path, 6).values, [1.0, 2.0])
        # only line 1 can be a header
        path.write_bytes(b"\r\ntimestamp,watts\r\n0,1.0\r\n")
        with pytest.raises(ValueError, match="unparseable row at line 2"):
            load_csv(path, 6)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("timestamp,watts\n\n  \n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, 6)

    @pytest.mark.parametrize("text", ["", "timestamp,watts\n", "\n\n"])
    def test_empty_input_raises_without_a_warning(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(path, 6)

    def test_whitespace_only_line_loads_through_the_rescan(self, tmp_path, monkeypatch):
        rows = [(6 * i, 0.5 * i) for i in range(10)]
        plain = write_rows(tmp_path, rows, "plain.csv")
        spaced = tmp_path / "spaced.csv"
        text = plain.read_text().splitlines(keepends=True)
        spaced.write_text("".join(text[:5] + [" \t \n"] + text[5:]))
        rescans = []
        rescan = series_module._raise_first_bad_row
        monkeypatch.setattr(series_module, "_raise_first_bad_row",
                            lambda path: rescans.append(path) or rescan(path))
        want = load_csv(plain, 6)
        assert rescans == []
        got = load_csv(spaced, 6)
        assert rescans == [spaced]
        assert got.start_time == want.start_time
        assert got.values.tobytes() == want.values.tobytes()

    def test_grid_larger_than_memory_refused(self, tmp_path):
        path = write_rows(tmp_path, [(0, 1.0), (10**15, 2.0)])
        with pytest.raises(ValueError, match="grid of 166666666666667 samples"):
            load_csv(path, 6)

    def test_grid_bound_is_physical_memory(self, tmp_path, monkeypatch):
        # 800 bytes of "physical memory" hold a grid of 100 float64 samples
        monkeypatch.setattr(series_module.os, "sysconf",
                            {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 100}.__getitem__)
        assert len(load_csv(write_rows(tmp_path, [(0, 1.0), (6 * 99, 2.0)]), 6)) == 100
        with pytest.raises(ValueError, match="grid of 101 samples of 6 s"):
            load_csv(write_rows(tmp_path, [(0, 1.0), (6 * 100, 2.0)]), 6)

    def test_round_trip_with_save(self, tmp_path):
        s = PowerSeries(50, 3, np.array([1.5, 0.0, 2.25]))
        path = tmp_path / "rt.csv"
        save_csv(s, path)
        back = load_csv(path, 3)
        assert back.start_time == 50
        np.testing.assert_allclose(back.values, s.values, atol=1e-6)


def load_csv_row_loop(path, expected_period):
    """The row-at-a-time loader ``load_csv`` replaced, kept as its oracle.

    One rule differs from the old loop: line 1 is a header only when its
    first field is not a number (the old loop skipped any bad line 1).
    """
    times, watts = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1:
                try:
                    float(parts[0])
                except ValueError:
                    continue  # header
            try:
                t, v = float(parts[0]), float(parts[1])
            except (ValueError, IndexError):
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
    idx = np.searchsorted(ts, grid, side="right") - 1
    exact = ts[idx] == grid
    next_gap = np.diff(ts, append=np.inf)[idx]
    present = exact | (next_gap <= expected_period)
    return PowerSeries(int(ts[0]), expected_period, np.where(present, vs[idx], np.nan))


WATTS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 5e-7,
                     1.7976931348623157e308, 1e300, 2.5e-6, 1234.5675]),
)
NUMERAL = st.sampled_from([repr, "{:.6f}".format, "{:e}".format, "{:.17g}".format])
PAD = st.sampled_from(["", " ", "\t", " \t "])
ROW = st.tuples(st.just("row"), st.integers(1, 20), WATTS, NUMERAL, PAD)
BLANK = st.tuples(st.just("blank"), st.sampled_from(["", " ", "\t", "  \t ", "\u00a0"]))
FAULT = st.one_of(
    st.none(),
    st.tuples(st.just("blank"), st.sampled_from(["17", "1,2,3", "x,1", "1,abc", "1,", ",",
                                                 "1,2,", "1;2", "1,nope"])),
    st.tuples(st.just("row"), st.integers(1, 20),
              st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False),
              NUMERAL, PAD),
    st.tuples(st.just("row"), st.integers(-1, 0), WATTS, NUMERAL, PAD),
)


def csv_text(header, lines, ending, final_newline):
    out = [] if header is None else [header]
    t = 1_600_000_000
    for line in lines:
        if line[0] == "row":
            _, dt, watts, numeral, pad = line
            t += dt
            out.append(f"{pad}{t}{pad},{pad}{numeral(watts)}{pad}")
        else:
            out.append(line[1])
    return ending.join(out) + (ending if final_newline else "")


class TestLoadCsvMatchesRowLoop:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.sampled_from([None, "timestamp,watts", "t,w,extra", "time", " "]),
           lines=st.lists(st.one_of(ROW, ROW, BLANK), max_size=30),
           fault=FAULT, fault_at=st.integers(0, 30),
           ending=st.sampled_from(["\n", "\r\n"]),
           final_newline=st.booleans(),
           period=st.sampled_from([1, 6]))
    def test_same_series_or_same_error(self, tmp_path, header, lines, fault, fault_at,
                                       ending, final_newline, period):
        """Headers, blank and whitespace-only lines, CRLF, subnormal, huge and
        -0.0 watts, and at most one bad line, negative power or
        non-increasing timestamp at a random line."""
        if fault is not None:
            lines = lines[:fault_at] + [fault] + lines[fault_at:]
        path = tmp_path / "gen.csv"
        path.write_bytes(csv_text(header, lines, ending, final_newline).encode("utf-8"))

        def outcome(loader):
            try:
                s = loader(path, period)
            except ValueError as err:
                return "error", str(err)
            return s.start_time, s.values.tobytes()

        assert outcome(load_csv) == outcome(load_csv_row_loop)


class TestColumnWriter:
    VALUES = [0.0, 5e-7, 1e-7, 1e9, 1.0000005, 0.0000125, 2.5e-6, 0.1234565,
              1234.5675, 7.9999995, 123456789.0000005, 3.0]

    @pytest.mark.parametrize("block_rows", [1, 5, 32_768])
    def test_save_csv_bytes_match_per_row_format(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(series_module, "WRITE_BLOCK_ROWS", block_rows)
        values = np.array(self.VALUES * 3)
        s = PowerSeries(1_600_000_000, 6, values)
        save_csv(s, tmp_path / "s.csv")
        want = "".join(f"{int(t)},{v:.6f}\n" for t, v in zip(s.timestamps(), s.values))
        assert (tmp_path / "s.csv").read_bytes() == want.encode("utf-8")

    @given(st.lists(st.floats(min_value=0.0, max_value=1e12), max_size=40),
           st.integers(1, 7))
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_save_csv_bytes_match_for_any_values(self, tmp_path, monkeypatch, values,
                                                 block_rows):
        monkeypatch.setattr(series_module, "WRITE_BLOCK_ROWS", block_rows)
        s = PowerSeries(0, 6, np.array(values))
        save_csv(s, tmp_path / "h.csv")
        want = "".join(f"{int(t)},{v:.6f}\n" for t, v in zip(s.timestamps(), s.values))
        assert (tmp_path / "h.csv").read_bytes() == want.encode("utf-8")

    def test_state_indices_bytes_match_per_row_format(self, tmp_path, monkeypatch):
        monkeypatch.setattr(series_module, "WRITE_BLOCK_ROWS", 4)
        stamps = 1_600_000_000 + 6 * np.arange(11)
        indices = np.array([0, 1, 2, 0, 0, 3, 1, 1, 0, 2, 4])
        _save_state_indices(tmp_path / "s.states", stamps, indices)
        want = "".join(f"{int(t)},{int(s)}\n" for t, s in zip(stamps, indices))
        assert (tmp_path / "s.states").read_bytes() == want.encode("utf-8")

    def test_empty_series_writes_empty_file(self, tmp_path):
        save_csv(PowerSeries(0, 6, np.zeros(0)), tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_bytes() == b""


def per_row(columns) -> bytes:
    """``%d``/``%.6f`` formatting row by row: the bytes ``save_columns`` writes."""
    formats = ["%d" if np.asarray(c).dtype.kind in "iu" else "%.6f" for c in columns]
    cells = zip(*[np.asarray(c).tolist() for c in columns])
    return "".join(",".join(f % v for f, v in zip(formats, row)) + "\n"
                   for row in cells).encode()


BLOCK_ROWS = pytest.mark.parametrize("block_rows", [1, 5, 32_768])
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1 / 128, -1e-9,
               2.0 ** 52 / 1e6, np.nextafter(2.0 ** 52 / 1e6, 0), 1e10, 1e300,
               -1e300, 1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan]


class TestVectorizedWriter:
    """``save_columns`` formats in numpy; these compare it with ``%`` per row."""

    def write(self, tmp_path, monkeypatch, block_rows, columns):
        monkeypatch.setattr(series_module, "WRITE_BLOCK_ROWS", block_rows)
        save_columns(tmp_path / "c.csv", columns)
        return (tmp_path / "c.csv").read_bytes()

    @BLOCK_ROWS
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=40),
           edges=st.lists(st.sampled_from(FLOAT_EDGES), max_size=6))
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_float64_bit_pattern(self, tmp_path, monkeypatch, block_rows, bits, edges):
        """Subnormals, -0.0, values at and above 2**52 / 1e6, inf and nan."""
        values = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64),
                                 np.array(edges, dtype=np.float64)])
        columns = [np.arange(len(values)), values]
        assert self.write(tmp_path, monkeypatch, block_rows, columns) == per_row(columns)

    @BLOCK_ROWS
    def test_half_integers_and_their_neighbours(self, tmp_path, monkeypatch, block_rows):
        k = np.concatenate([np.arange(2_000),
                            np.random.default_rng(0).integers(0, 2 ** 40, 2_000)])
        half = (k + 0.5) / 1e6
        columns = [k, half, np.nextafter(half, np.inf), np.nextafter(half, -np.inf)]
        assert self.write(tmp_path, monkeypatch, block_rows, columns) == per_row(columns)

    @BLOCK_ROWS
    def test_integers_across_digit_counts(self, tmp_path, monkeypatch, block_rows):
        edges = [0, 9, 10, 99, 100, 9_999, 10_000, 99_999_999, 100_000_000, 10 ** 18,
                 2 ** 63 - 1, -1, -9_999, -10_000, -10 ** 18, -2 ** 63]
        ints = np.array(edges, dtype=np.int64)
        columns = [ints, ints[::-1].copy(), np.full(len(ints), 7, dtype=np.uint8)]
        assert self.write(tmp_path, monkeypatch, block_rows, columns) == per_row(columns)
        wide = [np.array([0, 10 ** 19, 2 ** 64 - 1], dtype=np.uint64), np.zeros(3)]
        assert self.write(tmp_path, monkeypatch, block_rows, wide) == per_row(wide)

    def test_header_and_columns_checked(self, tmp_path):
        save_columns(tmp_path / "h.csv", [np.arange(2), np.array([0.5, 1.5])], header="t,w")
        assert (tmp_path / "h.csv").read_bytes() == b"t,w\n0,0.500000\n1,1.500000\n"
        for columns in ([np.arange(2), np.zeros(3)], [np.arange(2), np.array(["a", "b"])],
                        [np.zeros((2, 2))]):
            with pytest.raises(ValueError, match="columns"):
                save_columns(tmp_path / "bad.csv", columns)


class TestFillGaps:
    def test_short_gap_backward_fills(self):
        # 2 missing at 60 s = 120 s < 180 s: take the first valid value after
        s = PowerSeries(0, 60, np.array([5.0, np.nan, np.nan, 9.0]))
        out = fill_gaps(s)
        np.testing.assert_array_equal(out.values, [5.0, 9.0, 9.0, 9.0])

    def test_long_gap_zeros(self):
        # 5 missing at 60 s = 300 s >= 180 s: zeros
        vals = np.array([5.0, np.nan, np.nan, np.nan, np.nan, np.nan, 9.0])
        out = fill_gaps(PowerSeries(0, 60, vals))
        np.testing.assert_array_equal(out.values, [5.0, 0, 0, 0, 0, 0, 9.0])

    def test_exact_limit_is_long(self):
        # 3 missing at 60 s = exactly 180 s: still zeros
        out = fill_gaps(PowerSeries(0, 60, np.array([5.0, np.nan, np.nan, np.nan, 9.0])))
        np.testing.assert_array_equal(out.values, [5.0, 0.0, 0.0, 0.0, 9.0])

    def test_leading_gap_backward_fills(self):
        out = fill_gaps(PowerSeries(0, 6, np.array([np.nan, np.nan, 4.0])))
        np.testing.assert_array_equal(out.values, [4.0, 4.0, 4.0])

    def test_trailing_short_gap_zeros(self):
        out = fill_gaps(PowerSeries(0, 6, np.array([4.0, np.nan])))
        np.testing.assert_array_equal(out.values, [4.0, 0.0])

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError, match="entirely missing"):
            fill_gaps(PowerSeries(0, 6, np.full(5, np.nan)))

    def test_no_missing_pass_through(self):
        s = PowerSeries(0, 6, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(fill_gaps(s).values, s.values)

    @given(st.lists(st.one_of(st.none(), st.floats(0, 1e4)), min_size=1,
                    max_size=40).filter(lambda v: any(x is not None for x in v)))
    def test_idempotent_and_complete(self, raw):
        vals = np.array([np.nan if x is None else x for x in raw])
        once = fill_gaps(PowerSeries(0, 60, vals))
        assert not once.has_missing()
        twice = fill_gaps(once)
        np.testing.assert_array_equal(once.values, twice.values)


class TestNormalize:
    def test_reference_points(self):
        # fridge-style stats: reading 200 W with mean 200/std 400 -> 0
        assert normalize(np.array([200.0]), 200.0, 400.0)[0] == 0.0
        # kettle-style stats: reading 1700 W with mean 700/std 1000 -> 1
        assert normalize(np.array([1700.0]), 700.0, 1000.0)[0] == 1.0

    def test_accepts_series(self):
        s = PowerSeries(0, 6, np.array([100.0, 300.0]))
        np.testing.assert_array_equal(normalize(s, 200.0, 400.0), [-0.25, 0.25])

    def test_std_must_be_positive(self):
        with pytest.raises(ValueError, match="std"):
            normalize(np.zeros(2), 0.0, 0.0)
        with pytest.raises(ValueError, match="std"):
            denormalize(np.zeros(2), 0.0, -1.0)

    @given(st.lists(st.floats(0, 1e5), min_size=1, max_size=30),
           st.floats(-1e3, 1e3), st.floats(1e-2, 1e4))
    def test_denormalize_inverts(self, vals, mean, std):
        arr = np.asarray(vals)
        back = denormalize(normalize(arr, mean, std), mean, std)
        np.testing.assert_allclose(back, arr, atol=1e-9 * max(1.0, np.max(np.abs(arr))))
