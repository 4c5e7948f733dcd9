"""Series container, its CSV form, and the shared log-log OLS primitive."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateDesign

# Rows per write of the series CSV writer.  The reader converts slices of
# _CSV_SLICE characters, cut at the next line end: about _CSV_CHUNK lines of
# repr-printed doubles, which take 16 to 24 characters each.
_CSV_CHUNK = 1 << 16
_CSV_SLICE = 20 * _CSV_CHUNK


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
    """A finite real-valued sample path, immutable after construction."""

    values: np.ndarray

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
    """Read a single-column UTF-8 CSV: an optional ``value`` header (any case,
    padded), then one unquoted float per line in time order; empty lines are skipped.

    The text converts in slices of about ``_CSV_CHUNK`` lines; only when one
    fails is the whole file scanned for the offending line, which the error
    names together with the file.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    if not text:
        raise ValueError(f"{path}: empty file")
    # Universal newlines leave "\n" the one line end, as csv.reader has it;
    # str.splitlines would also split a line at a form feed.
    first = text.find("\n") + 1 or len(text)
    header = 1 if text[:first].strip().lower() == "value" else 0
    start = first if header else 0
    parts = []
    try:
        while start < len(text):
            stop = text.find("\n", start + _CSV_SLICE) + 1 or len(text)
            parts.append(np.array(list(filter(None, text[start:stop].split("\n"))), dtype=np.float64))
            start = stop
    except ValueError:
        parts = None
    if parts:
        values = np.concatenate(parts)
        del parts  # freed before TimeSeries copies the values
        if values.size and np.isfinite(values).all():
            return TimeSeries(values)
    for number, line in enumerate(text.split("\n")[header:], header + 1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate: a byte that was not UTF-8
            raise ValueError(f"{path}: line {number}: not UTF-8 text") from None
        if "," in line:
            raise ValueError(f"{path}: line {number}: expected a single column, got {line.count(',') + 1}")
        try:
            finite = not line or np.isfinite(np.float64(line))
        except ValueError:
            finite = False
        if not finite:
            raise ValueError(f"{path}: line {number}: expected a finite float, got {line!r}")
    raise ValueError(f"{path}: no values")


def write_series_csv(x: TimeSeries, path) -> Path:
    """Write the series as a single ``value`` column, CRLF-terminated rows of
    ``repr(v)``: the bytes ``csv.writer`` writes, ``_CSV_CHUNK`` rows per write."""
    path = Path(path)
    values = x.values
    with path.open("w", newline="") as fh:
        fh.write("value\r\n")
        for start in range(0, values.size, _CSV_CHUNK):
            fh.write("\r\n".join(map(repr, values[start : start + _CSV_CHUNK].tolist())) + "\r\n")
    return path
