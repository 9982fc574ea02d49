"""Benchmark dataset conventions: grid periods and window sizes.

The two reference corpora use different mains grids, so the same physical
spans (43.2 min of input context, 3.2 min of output) need different sample
counts: 6 s readings give s=32, w=200 (input 432); 3 s readings give s=64,
w=400 (input 864).
"""
from __future__ import annotations

from .windows import WindowConfig

__all__ = ["GRID_PERIOD_S", "DATASET_WINDOWS", "window_for"]

GRID_PERIOD_S = {"redd": 3, "ukdale": 6}

DATASET_WINDOWS = {
    "redd": WindowConfig(s=64, w=400),
    "ukdale": WindowConfig(s=32, w=200),
}


def window_for(dataset: str) -> WindowConfig:
    if dataset not in DATASET_WINDOWS:
        raise ValueError(f"unknown dataset {dataset!r}; know {sorted(DATASET_WINDOWS)}")
    return DATASET_WINDOWS[dataset]
