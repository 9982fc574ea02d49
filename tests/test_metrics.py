"""Error metrics and report/plot file generation."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattsplit.metrics import (
    METRIC_HEADER,
    PLOT_HEADER,
    ApplianceMetrics,
    energy_total,
    evaluate_pair,
    mae,
    report,
    sae,
)
from wattsplit import series as series_module
from wattsplit.series import PowerSeries
from wattsplit.trainer import DisaggregationResult

from conftest import mae_scalar


def series(values, start=0, period=6) -> PowerSeries:
    return PowerSeries(start, period, np.asarray(values, dtype=np.float64))


class TestMae:
    def test_hand_example(self):
        assert mae([10.0, 20.0, 30.0], [12.0, 18.0, 33.0]) == pytest.approx(7.0 / 3.0)

    def test_perfect_estimate(self):
        assert mae([5.0, 6.0], [5.0, 6.0]) == 0.0

    def test_matches_scalar_loop(self, rng):
        t = rng.uniform(0, 500, size=64)
        e = rng.uniform(0, 500, size=64)
        assert mae(t, e) == pytest.approx(mae_scalar(t, e), rel=1e-12)

    def test_symmetry(self, rng):
        t = rng.uniform(0, 500, size=32)
        e = rng.uniform(0, 500, size=32)
        assert mae(t, e) == mae(e, t)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mae([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mae([], [])

    @given(st.floats(min_value=0.1, max_value=1e3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shift_moves_mae_by_at_most_shift(self, shift, seed):
        # triangle inequality: adding a constant offset changes MAE by <= offset
        g = np.random.default_rng(seed)
        t = g.uniform(0, 100, size=20)
        e = g.uniform(0, 100, size=20)
        base = mae(t, e)
        shifted = mae(t, e + shift)
        assert shifted <= base + shift + 1e-9
        assert shifted >= base - shift - 1e-9


class TestSae:
    def test_hand_example(self):
        assert sae(100.0, 90.0) == pytest.approx(0.1)

    def test_overshoot(self):
        assert sae(100.0, 130.0) == pytest.approx(0.3)

    def test_zero_estimate_gives_exactly_one(self):
        assert sae(250.0, 0.0) == 1.0

    def test_nonpositive_truth_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            sae(0.0, 10.0)
        with pytest.raises(ValueError, match="must be > 0"):
            sae(-5.0, 10.0)

    @given(st.floats(min_value=0.1, max_value=1e4),
           st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, r_true, r_est, k):
        # rescaling both totals by the same factor leaves SAE unchanged
        assert sae(k * r_true, k * r_est) == pytest.approx(sae(r_true, r_est),
                                                           rel=1e-9)


class TestEnergyTotal:
    def test_matches_independent_sum(self, rng):
        vals = rng.uniform(0, 800, size=50)
        s = series(vals, period=6)
        want = sum(float(v) * 6 for v in vals)
        assert energy_total(s) == pytest.approx(want, abs=1e-9)

    def test_period_scales_energy(self):
        vals = [100.0, 200.0]
        assert energy_total(series(vals, period=3)) * 2 == pytest.approx(
            energy_total(series(vals, period=6)))

    def test_missing_rejected(self):
        s = series([1.0, 2.0, 3.0])
        s.values[1] = np.nan
        with pytest.raises(ValueError, match="missing"):
            energy_total(s)


class TestEvaluatePair:
    def test_fields(self):
        truth = series([10.0, 20.0, 30.0])
        est = series([12.0, 18.0, 33.0])
        row = evaluate_pair("kettle", truth, est)
        assert row.appliance == "kettle"
        assert row.mae_w == pytest.approx(7.0 / 3.0)
        assert row.samples == 3
        assert row.energy_true == pytest.approx(60.0 * 6)
        assert row.energy_est == pytest.approx(63.0 * 6)
        assert row.sae == pytest.approx(3.0 / 60.0)

    def test_misalignment_rejected(self):
        truth = series([1.0, 2.0], start=0)
        with pytest.raises(ValueError, match="misaligned"):
            evaluate_pair("x", truth, series([1.0, 2.0], start=6))
        with pytest.raises(ValueError, match="misaligned"):
            evaluate_pair("x", truth, series([1.0, 2.0], period=3))
        with pytest.raises(ValueError, match="misaligned"):
            evaluate_pair("x", truth, series([1.0, 2.0, 3.0]))


def result_for(name, est: PowerSeries) -> DisaggregationResult:
    states = np.eye(2)[np.zeros(len(est), dtype=int)]
    return DisaggregationResult(name, est, states)


class TestReport:
    def test_row_matches_evaluate_pair(self, tmp_path):
        truth = series([10.0, 20.0, 30.0])
        est = series([12.0, 18.0, 33.0])
        row = report(result_for("kettle", est), truth, result_for("kettle", est), tmp_path)
        assert row == evaluate_pair("kettle", truth, est)

    def test_metric_csv_format(self, tmp_path):
        truth = series([10.0, 20.0, 30.0])
        est = series([12.0, 18.0, 33.0])
        row = report(result_for("kettle", est), truth, result_for("kettle", est),
                     tmp_path / "new")
        lines = (tmp_path / "new" / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == METRIC_HEADER == "appliance,MAE_W,SAE,T,r,r_est"
        name, mae_v, sae_v, t, r, r_est = lines[1].split(",")
        assert name == "kettle"
        assert float(mae_v) == row.mae_w
        assert float(sae_v) == row.sae
        assert int(t) == 3
        assert float(r) == row.energy_true
        assert float(r_est) == row.energy_est

    def test_plot_files_have_plain_and_variant_columns(self, tmp_path):
        truth = series([10.0, 20.0, 30.0])
        est = series([12.0, 18.0, 33.0])
        plain_est = series([11.0, 19.0, 31.0])
        report(result_for("kettle", est), truth, result_for("kettle", plain_est),
               tmp_path)
        lines = (tmp_path / "plot_kettle.csv").read_text().strip().splitlines()
        assert lines[0] == PLOT_HEADER == "t,truth,plain,variant"
        assert len(lines) == 4
        t0, tr0, pl0, va0 = lines[1].split(",")
        assert (int(t0), float(tr0), float(pl0), float(va0)) == (0, 10.0, 11.0, 12.0)
        assert lines[2].split(",")[0] == "6"  # timestamps advance by the period

    def test_plot_bytes_match_per_row_format(self, tmp_path, monkeypatch):
        monkeypatch.setattr(series_module, "WRITE_BLOCK_ROWS", 3)
        values = [0.0, 5e-7, 1e-7, 1e9, 1.0000005, 0.0000125, 2.5e-6, 1234.5675]
        truth = series(values, start=1_600_000_000)
        est = series(values[::-1], start=1_600_000_000)
        plain = series(np.array(values) * 0.5, start=1_600_000_000)
        report(result_for("kettle", est), truth, result_for("kettle", plain),
               tmp_path)
        stamps = truth.timestamps()
        want = PLOT_HEADER + "\n" + "".join(
            f"{int(stamps[j])},{truth.values[j]:.6f},{plain.values[j]:.6f},"
            f"{est.values[j]:.6f}\n" for j in range(len(truth)))
        assert (tmp_path / "plot_kettle.csv").read_bytes() == want.encode("utf-8")

    def test_misaligned_plain_estimate_rejected(self, tmp_path):
        truth = series([10.0, 20.0])
        with pytest.raises(ValueError, match="truth and plain estimate are misaligned"):
            report(result_for("kettle", truth), truth,
                   result_for("kettle", series([1.0, 2.0], start=6)), tmp_path)

    def test_str_is_printable_table(self):
        row = ApplianceMetrics("kettle", 2.3333, 0.05, 3, 360.0, 378.0)
        assert str(row) == METRIC_HEADER + "\nkettle,2.333,0.0500,3,360.0,378.0"
