"""Evaluation metrics and report files."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import PowerSeries, save_columns

__all__ = ["mae", "sae", "energy_total", "ApplianceMetrics", "MetricReport",
           "evaluate_pair", "report", "PLOT_HEADER", "METRIC_HEADER"]

METRIC_HEADER = "appliance,MAE_W,SAE,T,r,r_est"
PLOT_HEADER = "t,truth,plain,variant"


def mae(truth, estimate) -> float:
    """Mean absolute error in watts."""
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(estimate, dtype=np.float64)
    if t.shape != e.shape or t.ndim != 1:
        raise ValueError(f"mae: shape mismatch {t.shape} vs {e.shape}")
    if t.size == 0:
        raise ValueError("mae: empty input")
    return float(np.mean(np.abs(t - e)))


def sae(r_true: float, r_est: float) -> float:
    """Signal aggregate error |r_est - r_true| / r_true on energy totals."""
    if r_true <= 0:
        raise ValueError(f"sae: true total must be > 0, got {r_true}")
    return abs(r_est - r_true) / r_true


def energy_total(series: PowerSeries) -> float:
    """Energy in watt-seconds: sum of power times the sample period."""
    if series.has_missing():
        raise ValueError("cannot total a series with missing values")
    return float(np.sum(series.values) * series.period)


@dataclass
class ApplianceMetrics:
    appliance: str
    mae_w: float
    sae: float
    samples: int
    energy_true: float
    energy_est: float

    def csv_row(self) -> str:
        return (f"{self.appliance},{self.mae_w!r},{self.sae!r},{self.samples},"
                f"{self.energy_true!r},{self.energy_est!r}")


@dataclass
class MetricReport:
    rows: list[ApplianceMetrics]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(METRIC_HEADER + "\n")
            for row in self.rows:
                fh.write(row.csv_row() + "\n")

    def __str__(self) -> str:
        lines = [METRIC_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.appliance},{row.mae_w:.3f},{row.sae:.4f},{row.samples},"
                f"{row.energy_true:.1f},{row.energy_est:.1f}"
            )
        return "\n".join(lines)


def _check_aligned(truth: PowerSeries, estimate: PowerSeries) -> None:
    if (truth.start_time != estimate.start_time
            or truth.period != estimate.period
            or len(truth) != len(estimate)):
        raise ValueError(
            "truth and estimate are misaligned: "
            f"start {truth.start_time} vs {estimate.start_time}, "
            f"period {truth.period} vs {estimate.period}, "
            f"length {len(truth)} vs {len(estimate)}"
        )


def evaluate_pair(appliance: str, truth: PowerSeries,
                  estimate: PowerSeries) -> ApplianceMetrics:
    _check_aligned(truth, estimate)
    r_true = energy_total(truth)
    r_est = energy_total(estimate)
    return ApplianceMetrics(
        appliance=appliance,
        mae_w=mae(truth.values, estimate.values),
        sae=sae(r_true, r_est),
        samples=len(truth),
        energy_true=r_true,
        energy_est=r_est,
    )


def report(results, truths, plain_results, out_dir=None) -> MetricReport:
    """Metric rows for each (result, truth) pair; optional plot files.

    When ``out_dir`` is given, writes metrics.csv plus one
    plot_<appliance>.csv per appliance with columns t,truth,plain,variant,
    whose plain column is the estimate of the matching ``plain_results``
    entry.
    """
    import os

    if len(results) != len(truths):
        raise ValueError(f"{len(results)} results vs {len(truths)} truth series")
    if len(plain_results) != len(results):
        raise ValueError("plain_results length does not match results")
    rows = [evaluate_pair(res.appliance, truth, res.estimate)
            for res, truth in zip(results, truths)]
    rep = MetricReport(rows)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rep.to_csv(os.path.join(out_dir, "metrics.csv"))
        for res, truth, plain in zip(results, truths, plain_results):
            _check_aligned(truth, plain.estimate)
            save_columns(os.path.join(out_dir, f"plot_{res.appliance}.csv"),
                         [truth.timestamps(), truth.values, plain.estimate.values,
                          res.estimate.values], header=PLOT_HEADER)
    return rep
