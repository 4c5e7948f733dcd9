"""Series container, its CSV form, ``_read_text``, the one decoding of an input
file, ``_write_text``, the one writer of an output file, ``WindowGrid``, the one
least-squares kernel, and ``_log_curve_slope``, the one check of an estimator
window's curve."""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OverflowValue, echo

# Rows per write of the series CSV writer.  The reader converts slices of
# _CSV_SLICE characters, cut at the next line end: about _CSV_CHUNK lines of
# repr-printed doubles, which take 16 to 24 characters each.
_CSV_CHUNK = 1 << 16
_CSV_SLICE = 20 * _CSV_CHUNK
# Elements that bound one block of window weights and of its boolean membership
# (segments x windows; the weights hold up to twice as many, where segments'
# moments count), and of slopes, NaN where a window is unusable (rows x windows).
_CHUNK = 1 << 16


@dataclass(frozen=True)
class TimeSeries:
    """A finite real-valued sample path, immutable after construction."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must be finite (no NaN or infinity)")
        if values.size < 1:
            raise ValueError("series must contain at least one value")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class RegressionFit:
    """The least-squares slope of one estimator window."""

    slope: float


def _log_curve_slope(xs, curve, first: int, noun: str, zero_error: type[Exception]) -> RegressionFit:
    """Slope of log(curve) on xs through a one-window ``WindowGrid``, once every
    entry of the window's curve has a finite log: the one rule for which
    windows are unusable.

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
    [(_, slopes)] = WindowGrid(xs, [(0, curve.size - 1)]).slope_blocks(np.log(curve)[None, :])
    return RegressionFit(float(slopes[0, 0]))


class WindowGrid:
    """Least-squares slopes of many rows over many windows of one regressor: the
    one regression kernel: the study fits its grids with it, and
    ``_log_curve_slope`` one window of one series.

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
    are built once, here, and serve every call, each beside its boolean
    membership, which segments make up each window.  A block's weights are
    divided by its windows' Sxx_w when it is built, and each segment of
    several points, whose C_s counts, has its membership row, divided the
    same way, stacked right after its weight row; a row's terms hold Y_s and
    such C_s in the same order.  A block of slopes is then one product.
    Membership alone decides which windows a non-finite value makes unusable
    (NaN slopes): a weight can be zero.
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
        first, stop = np.searchsorted(cuts, starts), np.searchsorted(cuts, stops)
        anchors = xs[cuts[:-1]]
        self._offsets = xs[self._span] - np.repeat(anchors, sizes)
        several = sizes > 1
        self._spread = bool(several.any())
        # a row's terms, slot by slot: each segment's Y_s, then its C_s where the
        # segment holds several points (a one-point segment's C_s is 0)
        self._slots = np.concatenate(([0], np.cumsum(1 + several)))
        self._several = np.flatnonzero(several)

        sums = np.add.reduceat(self._offsets, self._cuts)
        squares = np.add.reduceat(self._offsets * self._offsets, self._cuts)
        sizes = sizes.astype(np.float64)
        counts = (stops - starts).astype(np.float64)
        # (window slice, segment slice, weights over Sxx, membership)
        self._blocks = []
        step = max(1, _CHUNK // self._cuts.size)
        for start in range(0, self.size, step):
            cols = slice(start, min(start + step, self.size))
            segs = slice(int(first[cols].min()), int(stop[cols].max()))
            index = np.arange(segs.start, segs.stop)[:, None]
            inside = (index >= first[cols]) & (index < stop[cols])
            block = inside.astype(np.float64)
            mean = ((sizes[segs] * anchors[segs] + sums[segs]) @ block) / counts[cols]
            offset_sums = sums[segs] @ block
            offset_squares = squares[segs] @ block
            # a_s - xbar_w inside each window, then less the residual r_w of its mean
            deviations = np.subtract(anchors[segs, None], mean, out=block)
            deviations *= inside
            residual = (offset_sums + sizes[segs] @ deviations) / counts[cols]
            weights = np.subtract(anchors[segs, None], mean, out=block)
            weights -= residual
            weights *= inside
            sxx = offset_squares + 2.0 * (sums[segs] @ weights) + sizes[segs] @ (weights * weights)
            weights /= sxx
            if self._spread:
                # the slot of each Y_s takes its weight, and the next slot, where C_s counts, its membership
                slots = self._slots[segs] - self._slots[segs.start]
                stacked = np.zeros((self._slots[segs.stop] - self._slots[segs.start], weights.shape[1]))
                stacked[slots] = weights
                stacked[slots[several[segs]] + 1] = inside[several[segs]] / sxx
                weights = stacked
            self._blocks.append((cols, segs, weights, inside))

    def slope_blocks(self, ys):
        """Yield (window slice, slopes of every row there), one bounded block at a time.

        A window is unusable in a row when its membership meets a non-finite
        value of the row, the rule ``_log_curve_slope`` applies to one window.
        Its slope there is NaN, the one mark of an unusable window.  Only the
        segments that hold a non-finite value enter the product that finds
        these windows: rows' hit counts times membership, exact in floats.
        """
        values = np.asarray(ys, dtype=np.float64)[:, self._span]
        bad = ~np.isfinite(values)
        touched = np.empty(0, dtype=np.int64)
        if bad.any():
            values = np.where(bad, 0.0, values)
            # each row's non-finite values per segment: small integers, exact in any product
            hits = np.add.reduceat(bad, self._cuts, axis=1, dtype=np.float64)
            touched = np.flatnonzero(hits.any(axis=0))
        terms = sums = np.add.reduceat(values, self._cuts, axis=1)
        if self._spread:
            terms = np.empty((values.shape[0], self._slots[-1]))
            terms[:, self._slots[:-1]] = sums
            moments = np.add.reduceat(values * self._offsets, self._cuts, axis=1)
            terms[:, self._slots[self._several] + 1] = moments[:, self._several]
        # a block of slopes holds at most _CHUNK elements too
        step = max(1, _CHUNK // max(self._cuts.size, values.shape[0]))
        for cols, segs, weights, inside in self._blocks:
            block_terms = terms[:, self._slots[segs.start] : self._slots[segs.stop]]
            marked = touched[(touched >= segs.start) & (touched < segs.stop)]
            if marked.size:
                members = inside[marked - segs.start].astype(np.float64)
                marks = hits[:, marked]
            for start in range(cols.start, cols.stop, step):
                window = slice(start, min(start + step, cols.stop))
                part = slice(window.start - cols.start, window.stop - cols.start)
                slopes = block_terms @ weights[:, part]
                if marked.size:
                    slopes[marks @ members[:, part] > 0.0] = np.nan
                yield window, slopes


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


def _write_text(path, parts) -> Path:
    """Write the str ``parts`` in order as the file ``path``, the one way every
    output file is written: UTF-8, line ends as given, the parent directory made
    when missing.  The file is complete or absent: the parts go to a sibling
    ``.{name}.{pid}.partial``, renamed onto ``path`` once all are written and
    removed when anything fails, an interrupt included.  Returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with partial.open("x", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path


def _write_json(path, record) -> Path:
    """Write ``record`` as the manifest and the sidecar are written: JSON with
    sorted keys, an indent of 2 and a final newline."""
    return _write_text(path, [json.dumps(record, sort_keys=True, indent=2), "\n"])


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
            raise ValueError(f"{path}: line {number}: expected a finite float, got {echo.repr(line)}")
    raise ValueError(f"{path}: no values")


def write_series_csv(x: TimeSeries, path) -> Path:
    """Write the series as a single ``value`` column, CRLF-terminated rows of
    ``repr(v)``: the bytes ``csv.writer`` writes, ``_CSV_CHUNK`` rows per write
    of ``_write_text``, which also makes a missing parent directory."""
    values = x.values
    # one expression per chunk, so its list of floats is freed before its text is written
    rows = (
        "\r\n".join(map(repr, values[start : start + _CSV_CHUNK].tolist())) + "\r\n"
        for start in range(0, values.size, _CSV_CHUNK)
    )
    return _write_text(path, itertools.chain(["value\r\n"], rows))
