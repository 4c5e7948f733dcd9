"""Series container, summary statistics, and the shared log-log OLS primitive."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DegenerateDesign


def _as_finite_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("series values must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series values must be finite (no NaN or infinity)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A finite real-valued sample path, immutable after construction.

    ``provenance`` optionally records how the series was generated (model
    name, parameter map, seed) and travels with CSV exports.
    """

    values: np.ndarray
    provenance: Mapping | None = None

    def __post_init__(self):
        values = _as_finite_array(self.values)
        if values.size < 1:
            raise ValueError("series must contain at least one value")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class RegressionFit:
    """A least-squares line together with the read-only (x, y) design it was fit on."""

    slope: float
    intercept: float
    xs: np.ndarray
    ys: np.ndarray

    def residuals(self) -> np.ndarray:
        return self.ys - (self.intercept + self.slope * self.xs)


def sample_mean(x: TimeSeries) -> float:
    """Arithmetic mean, accumulated with compensated summation."""
    return math.fsum(x.values) / x.n


def ols_slope(xs, ys) -> RegressionFit:
    """Ordinary least-squares line fit.

    slope = sum((x - xbar)(y - ybar)) / sum((x - xbar)^2), intercept chosen
    so the line passes through (xbar, ybar).  Sums use compensated
    accumulation so designs with ~1e6 points stay stable.  Both coordinates
    must be one-dimensional and finite.
    """
    x, y = _as_finite_array(xs), _as_finite_array(ys)
    if x.size != y.size or x.size < 2:
        raise DegenerateDesign("design needs >= 2 paired points")
    if np.all(x == x[0]):
        raise DegenerateDesign("all abscissae coincide")
    xbar = math.fsum(x) / x.size
    ybar = math.fsum(y) / y.size
    dx = x - xbar
    sxx = math.fsum(dx * dx)
    sxy = math.fsum(dx * (y - ybar))
    slope = sxy / sxx
    return RegressionFit(slope=slope, intercept=ybar - slope * xbar, xs=x, ys=y)


def read_series_csv(path) -> TimeSeries:
    """Read a single-column CSV (optional ``value`` header); rows are time order."""
    path = Path(path)
    values = []
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    start = 1 if rows[0] and rows[0][0].strip().lower() == "value" else 0
    for row in rows[start:]:
        if not row:
            continue
        if len(row) != 1:
            raise ValueError(f"{path}: expected a single column, got {len(row)}")
        values.append(float(row[0]))
    provenance = None
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        provenance = json.loads(sidecar.read_text())
    return TimeSeries(values, provenance=provenance)


def write_series_csv(x: TimeSeries, path) -> Path:
    """Write the series as a single ``value`` column; the provenance record,
    when present, is serialized to a JSON sidecar next to the CSV."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        for v in x.values:
            writer.writerow([repr(float(v))])
    if x.provenance is not None:
        sidecar = path.with_suffix(".json")
        sidecar.write_text(json.dumps(dict(x.provenance), sort_keys=True, indent=2) + "\n")
    return path
