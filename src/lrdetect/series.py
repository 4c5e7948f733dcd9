"""Series container, its CSV form, ``_read_text``, the one decoding of an input
file, ``WindowGrid``, the one least-squares kernel, and ``_log_curve_slope``, the
one check of an estimator window's curve."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateDesign, OverflowValue, echo

# Rows per write of the series CSV writer.  The reader converts slices of
# _CSV_SLICE characters, cut at the next line end: about _CSV_CHUNK lines of
# repr-printed doubles, which take 16 to 24 characters each.
_CSV_CHUNK = 1 << 16
_CSV_SLICE = 20 * _CSV_CHUNK
# Float64 elements that bound one block of window weights (segments x windows)
# and of slopes (rows x windows).
_CHUNK = 1 << 16


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


@dataclass(frozen=True)
class RegressionFit:
    """The least-squares slope of one estimator window."""

    slope: float


def ols_slope(xs, ys) -> RegressionFit:
    """Least-squares slope of ys on xs, the estimators' fit: a one-window ``WindowGrid``.

    Both coordinates must be one-dimensional and finite (ValueError), equally
    long with at least 2 points, and not all abscissae equal (DegenerateDesign).
    ``ols_slope`` in ``tests/oracles.py`` is the compensated-sum reference for this kernel.
    """
    x, y = _as_finite_array(xs), _as_finite_array(ys)
    if x.size != y.size or x.size < 2:
        raise DegenerateDesign("design needs >= 2 paired points")
    if np.all(x == x[0]):
        raise DegenerateDesign("all abscissae coincide")
    [(_, slopes, _)] = WindowGrid(x, [(0, x.size - 1)]).slope_blocks(y[None, :])
    return RegressionFit(float(slopes[0, 0]))


def _log_curve_slope(xs, curve, first: int, noun: str, zero_error: type[Exception]) -> RegressionFit:
    """``ols_slope`` of log(curve) on xs, once every entry of the window's curve
    has a finite log: the one rule for which windows are unusable.

    ``curve``'s entries sit at positions first, first + 1, ...; ``noun`` names
    an entry and its positions ("ordinate at frequency indices").  A non-finite
    entry raises OverflowValue, a negative one ValueError and a zero one
    ``zero_error``, in that order; the message names the first positions and,
    when it cuts their list, how many there are.  The study skips exactly the
    windows whose log curve is not finite.
    """
    curve = np.asarray(curve, dtype=np.float64)
    for bad, error, what in (
        (~np.isfinite(curve), OverflowValue, "overflowing (non-finite)"),
        (curve < 0.0, ValueError, "negative"),
        (curve == 0.0, zero_error, "zero"),
    ):
        hits = first + np.flatnonzero(bad)
        if hits.size:
            cut = f" ({hits.size} in all)" if hits.size > echo.maxlist else ""
            raise error(f"{what} {noun} {echo.repr(hits.tolist())}{cut}")
    return ols_slope(xs, np.log(curve))


class WindowGrid:
    """Least-squares slopes of many rows over many windows of one regressor: the
    one regression kernel, which the study and ``ols_slope`` both fit with.

    ``windows`` holds inclusive (start, stop) positions into ``xs``, at least
    two each.  All window endpoints cut the regressor into segments; each row
    reduces to per-segment sums Y_s = sum y_j and C_s = sum (x_j - a_s) y_j,
    where the anchor a_s is the segment's first regressor value.  Window w's slope is

        (sum_s C_s + sum_s (a_s - xbar_w - r_w) Y_s) / Sxx_w

    over its segments.  a_s - xbar_w subtracts two values inside the window's
    range, so it loses no digits, and the rounding residual r_w of the window
    mean xbar_w is kept as a separate term, so the weights sum to zero.  This
    matches the compensated-sum reference ``ols_slope`` in ``tests/oracles.py``
    to ~1e-12 relative even for narrow windows far from the origin, where
    differences of prefix sums cancel catastrophically.

    The (segments x windows) weight blocks, at most ``_CHUNK`` elements each,
    are built once, here, and serve every call.  A boolean membership block
    is kept beside each only when some segment holds more than one point:
    otherwise every x_j - a_s is zero, and so is every C_s.
    """

    def __init__(self, xs, windows):
        xs = np.asarray(xs, dtype=np.float64)
        windows = np.asarray(windows, dtype=np.int64).reshape(-1, 2)
        starts, stops = windows[:, 0], windows[:, 1] + 1
        # np.unique by hand: np.unique imports numpy.ma, ~11 ms of a fresh process
        edges = np.sort(np.concatenate([starts, stops]))
        cuts = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
        sizes = np.diff(cuts)
        self.size = windows.shape[0]
        self._span = slice(int(cuts[0]), int(cuts[-1]))
        self._cuts = cuts[:-1] - cuts[0]
        self._first = np.searchsorted(cuts, starts)
        self._stop = np.searchsorted(cuts, stops)
        self._anchors = xs[cuts[:-1]]
        self._offsets = xs[self._span] - np.repeat(self._anchors, sizes)
        self._spread = bool(np.any(sizes > 1))

        sums = np.add.reduceat(self._offsets, self._cuts)
        squares = np.add.reduceat(self._offsets * self._offsets, self._cuts)
        sizes = sizes.astype(np.float64)
        counts = (stops - starts).astype(np.float64)
        self._mean = np.empty(self.size)
        self._residual = np.zeros(self.size)
        self._sxx = np.empty(self.size)
        # (window slice, segment slice, weights, membership or None)
        self._blocks = []
        step = max(1, _CHUNK // self._cuts.size)
        for start in range(0, self.size, step):
            cols = slice(start, min(start + step, self.size))
            segs = slice(int(self._first[cols].min()), int(self._stop[cols].max()))
            index = np.arange(segs.start, segs.stop)[:, None]
            inside = (index >= self._first[cols]) & (index < self._stop[cols])
            block = inside.astype(np.float64)
            self._mean[cols] = ((sizes[segs] * self._anchors[segs] + sums[segs]) @ block) / counts[cols]
            offset_sums = sums[segs] @ block
            offset_squares = squares[segs] @ block
            deviations = self._weights(cols, segs, inside, out=block)  # r_w is still 0 here
            self._residual[cols] = (offset_sums + sizes[segs] @ deviations) / counts[cols]
            weights = self._weights(cols, segs, inside, out=block)
            self._sxx[cols] = offset_squares + 2.0 * (sums[segs] @ weights) + sizes[segs] @ (weights * weights)
            self._blocks.append((cols, segs, weights, inside if self._spread else None))

    def _weights(self, cols, segs, inside, out):
        """Per-segment weights a_s - xbar_w - r_w, zero outside each window, written to ``out``."""
        np.subtract(self._anchors[segs, None], self._mean[cols], out=out)
        out -= self._residual[cols]
        out *= inside
        return out

    def slope_blocks(self, ys):
        """Yield (window slice, slopes of every row there, flags), one bounded block at a time.

        A window's slope is NaN in rows with a non-finite value inside it.
        flags is the boolean mask of exactly those slopes, the NaNs of the
        block, and None for a block in which no slope is flagged.
        """
        values = np.asarray(ys, dtype=np.float64)[:, self._span]
        bad = ~np.isfinite(values)
        prefix = None
        if bad.any():
            values = np.where(bad, 0.0, values)
            # prefix[:, s] counts each row's non-finite values before segment s
            per_segment = np.add.reduceat(bad, self._cuts, axis=1, dtype=np.int64)
            prefix = np.zeros((values.shape[0], self._cuts.size + 1), dtype=np.int64)
            np.cumsum(per_segment, axis=1, out=prefix[:, 1:])
        sums = np.add.reduceat(values, self._cuts, axis=1)
        if self._spread:
            moments = np.add.reduceat(values * self._offsets, self._cuts, axis=1)
        # a block of slopes holds at most _CHUNK elements too
        step = max(1, _CHUNK // max(self._cuts.size, values.shape[0]))
        for cols, segs, weights, inside in self._blocks:
            for start in range(cols.start, cols.stop, step):
                window = slice(start, min(start + step, cols.stop))
                part = slice(window.start - cols.start, window.stop - cols.start)
                slopes = sums[:, segs] @ weights[:, part]
                if inside is not None:
                    slopes += moments[:, segs] @ inside[:, part].astype(np.float64)
                slopes /= self._sxx[window]
                flags = None
                if prefix is not None:
                    flagged = prefix[:, self._stop[window]] > prefix[:, self._first[window]]
                    if flagged.any():
                        flags = flagged
                        slopes[flagged] = np.nan
                yield window, slopes, flags


def _read_text(path) -> str:
    """The text of an input file, as every reader decodes it: strict UTF-8, with
    "\\r\\n" and "\\r" line ends turned into "\\n".

    A byte that is not UTF-8 raises ValueError naming the file and its line;
    line ends of all three kinds count, as in ``bytes.splitlines``.  The bytes
    are freed before the newline pass, so at most two copies of the file live at once.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ends = data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start) - data.count(b"\r\n", 0, exc.start)
        raise ValueError(f"{path}: line {ends + 1}: not UTF-8 text") from None
    del data
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_series_csv(path) -> TimeSeries:
    """Read a single-column CSV (``_read_text``): an optional ``value`` header (any
    case, padded), then one unquoted float per line in time order; empty lines are skipped.

    The text converts in slices of about ``_CSV_CHUNK`` lines; only when one
    fails is the whole file scanned for the offending line, which the error
    names together with the file.
    """
    path = Path(path)
    text = _read_text(path)
    if not text:
        raise ValueError(f"{path}: empty file")
    # "\n" is the one line end, as csv.reader has it; str.splitlines would
    # also split a line at a form feed.
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
