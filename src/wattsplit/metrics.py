"""Evaluation metrics and report files."""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .series import PowerSeries, check_aligned, save_columns

__all__ = ["mae", "sae", "energy_total", "ApplianceMetrics", "evaluate_pair", "report",
           "PLOT_HEADER", "METRIC_HEADER"]

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
    series.require_filled("series")
    return float(np.sum(series.values) * series.period)


@dataclass
class ApplianceMetrics:
    appliance: str
    mae_w: float
    sae: float
    samples: int
    energy_true: float
    energy_est: float

    def to_csv(self, path) -> None:
        """Write the header and this row, at full precision."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{METRIC_HEADER}\n{self.appliance},{self.mae_w!r},{self.sae!r},"
                     f"{self.samples},{self.energy_true!r},{self.energy_est!r}\n")

    def __str__(self) -> str:
        return (f"{METRIC_HEADER}\n{self.appliance},{self.mae_w:.3f},{self.sae:.4f},"
                f"{self.samples},{self.energy_true:.1f},{self.energy_est:.1f}")


def evaluate_pair(appliance: str, truth: PowerSeries,
                  estimate: PowerSeries) -> ApplianceMetrics:
    check_aligned(truth, estimate, ("truth", "estimate"))
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


def report(result, truth: PowerSeries, plain_result, out_dir) -> ApplianceMetrics:
    """One appliance's metric row, written to ``out_dir`` as metrics.csv,
    plus plot_<appliance>.csv with columns t,truth,plain,variant, whose
    plain column is the estimate of ``plain_result``."""
    row = evaluate_pair(result.appliance, truth, result.estimate)
    check_aligned(truth, plain_result.estimate, ("truth", "plain estimate"))
    os.makedirs(out_dir, exist_ok=True)
    row.to_csv(os.path.join(out_dir, "metrics.csv"))
    save_columns(os.path.join(out_dir, f"plot_{result.appliance}.csv"),
                 [truth.timestamps(), truth.values, plain_result.estimate.values,
                  result.estimate.values], header=PLOT_HEADER)
    return row
