"""Time-domain variance-plot estimator with the consistency-guaranteeing window rule."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBlockVariance,
    OutOfRangeTheta,
    OverflowValue,
    WindowExceedsSeries,
)
from .series import RegressionFit, TimeSeries, ols_slope

# A variance-plot slope above this value means LRD.
VARIANCE_LRD_THRESHOLD = -1.0


@dataclass(frozen=True)
class VariancePlotConfig:
    """Observation window for the variance plot.

    Either give the window explicitly as (n1, n2), or give (delta, m) to be
    resolved against a concrete series length n as n1 = floor(n^delta),
    n2 = ceil(m * n^delta).  The slope is consistent whenever delta stays
    below ``admissible_delta_bound`` of the true slope and m > 1.
    """

    n1: int | None = None
    n2: int | None = None
    delta: float | None = None
    m: float | None = None

    def __post_init__(self):
        explicit = self.n1 is not None or self.n2 is not None
        scaled = self.delta is not None or self.m is not None
        if explicit == scaled:
            raise ValueError("give exactly one of (n1, n2) or (delta, m)")
        if explicit:
            if self.n1 is None or self.n2 is None:
                raise ValueError("both n1 and n2 are required")
            if self.n1 < 1 or self.n2 <= self.n1:
                raise ValueError(f"need 1 <= n1 < n2, got ({self.n1}, {self.n2})")
        else:
            if self.delta is None or self.m is None:
                raise ValueError("both delta and m are required")
            if not 0.0 < self.delta < 1.0:
                raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
            if not self.m > 1.0:
                raise ValueError(f"m must exceed 1, got {self.m}")

    def resolve(self, n: int) -> tuple[int, int]:
        """Concrete (n1, n2) for a series of length n; 1 <= n1 < n2 <= n.

        A (delta, m) window's upper end is clamped, with a RuntimeWarning, to
        n - 1: the longest block length with two blocks, and so a variance.
        """
        if self.n1 is not None:
            if self.n2 > n:
                raise WindowExceedsSeries(f"n2={self.n2} exceeds series length {n}")
            return self.n1, self.n2
        root = n**self.delta
        low = max(1, math.floor(root))
        high = math.ceil(self.m * root)
        if high > n - 1:
            warnings.warn(
                f"window upper end {high} clamped to {n - 1}, one below series length {n}",
                RuntimeWarning,
                stacklevel=2,
            )
            high = n - 1
        if high - low + 1 < 2:
            raise WindowExceedsSeries(
                f"resolved window [{low}, {high}] has fewer than 2 block lengths"
            )
        return low, high


@dataclass(frozen=True)
class BlockVarianceCurve:
    """Variances of overlapping block means, indexed by block length."""

    lengths: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.int64)
        s2 = np.asarray(self.s2, dtype=np.float64)
        if lengths.size != s2.size or lengths.size < 1:
            raise ValueError("lengths and s2 must be nonempty and equally long")
        if not np.all(np.isfinite(s2)) or np.any(s2 < 0):
            raise ValueError("block variances must be finite and nonnegative")
        lengths.setflags(write=False)
        s2.setflags(write=False)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "s2", s2)

    @property
    def zero_lengths(self) -> np.ndarray:
        """Block lengths whose variance is exactly zero (log undefined there)."""
        return self.lengths[self.s2 == 0.0]


@np.errstate(over="ignore", invalid="ignore")
def block_variance_rows(values: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Variance of overlapping block means for every block length l in [n1, n2], per row.

    For each row and each l the c = n - l + 1 overlapping blocks (x(k), ...,
    x(k+l-1)) are averaged and their population variance around the mean of
    all block means is returned; column i holds length n1 + i.  The rows are
    centred (the statistic is shift-invariant; the centre only keeps the
    prefix sums small) and summed once; each length then writes its block
    sums b into one reused buffer and takes their sum s1 and sum of squares
    s2, so S_l^2 = (s2 - s1^2 / c) / (c l^2) costs three array passes.

    The one-pass difference V = s2 - s1^2 / c loses about log2(s2 / V) bits
    (Chan, Golub & LeVeque, Am. Statist. 37, 1983).  Wherever V * 2**16 <= s2,
    which also covers V <= 0, c = 1 and equal block sums, that entry is
    recomputed in the deviation form: block means, minus their mean, dotted.
    Every row is computed as if it were alone, whatever the memory layout of
    ``values``: a row's bits do not depend on the batch it comes in.  A
    variance that overflows comes out inf or nan, without a warning.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows, n = values.shape
    if n1 < 1 or n2 < n1:
        raise ValueError(f"need 1 <= n1 <= n2, got ({n1}, {n2})")
    if n2 > n:
        raise WindowExceedsSeries(f"n2={n2} exceeds series length {n}")
    prefix = np.zeros((rows, n + 1))
    np.subtract(values, (np.add.reduce(values, axis=1) / n)[:, None], out=prefix[:, 1:])
    np.cumsum(prefix[:, 1:], axis=1, out=prefix[:, 1:])
    lengths = np.arange(n1, n2 + 1)
    counts = n + 1 - lengths
    sums = np.empty((lengths.size, rows))
    squares = np.empty((lengths.size, rows, 1, 1))
    # Row r's block sums of length l land at the start of buffer[r]: one flat
    # difference over all rows, whose last l values per row straddle two rows.
    buffer = np.empty((rows, n + 1))
    flat, flat_prefix = buffer.reshape(-1), prefix.reshape(-1)
    for i, (length, count) in enumerate(zip(lengths.tolist(), counts.tolist())):
        np.subtract(flat_prefix[length:], flat_prefix[:-length], out=flat[:-length])
        blocks = buffer[:, :count]
        np.add.reduce(blocks, axis=1, out=sums[i])
        # stacked row dot products: bit-identical to one ddot per row
        np.matmul(blocks[:, None, :], blocks[:, :, None], out=squares[i])
    sums, squares = sums.T, squares[:, :, 0, 0].T
    spread = squares - sums**2 / counts
    out = spread / (counts * lengths**2.0)
    redo = spread * 2.0**16 <= squares
    for i in np.flatnonzero(redo.any(axis=0)).tolist():
        length, count, flagged = n1 + i, counts[i], np.flatnonzero(redo[:, i])
        means = (prefix[flagged, length:] - prefix[flagged, :-length]) / length
        deviations = means - np.add.reduce(means, axis=1, keepdims=True) / count
        out[flagged, i] = (deviations[:, None, :] @ deviations[:, :, None])[:, 0, 0] / count
    return out


def block_mean_variances(x: TimeSeries, n1: int, n2: int) -> BlockVarianceCurve:
    """Variances of overlapping block means of one series for block lengths n1..n2.

    A variance that overflows the float range raises OverflowValue naming its block lengths.
    """
    lengths = np.arange(n1, n2 + 1)
    s2 = block_variance_rows(x.values[None, :], n1, n2)[0]
    overflowing = ~np.isfinite(s2)
    if overflowing.any():
        raise OverflowValue(
            f"overflowing (non-finite) block variance at block lengths {lengths[overflowing].tolist()}"
        )
    return BlockVarianceCurve(lengths, s2)


def curve_slope(curve: BlockVarianceCurve) -> RegressionFit:
    """Least-squares slope of log variance against log block length."""
    if curve.zero_lengths.size:
        raise DegenerateBlockVariance(
            f"zero block variance at lengths {curve.zero_lengths.tolist()}"
        )
    return ols_slope(np.log(curve.lengths), np.log(curve.s2))


def variance_plot_slope(x: TimeSeries, cfg: VariancePlotConfig) -> RegressionFit:
    """Slope of the variance plot over the configured window.

    The slope estimates 2D - 1, where D is the memory parameter governing the
    decay of the sample mean's variance.
    """
    n1, n2 = cfg.resolve(x.n)
    return curve_slope(block_mean_variances(x, n1, n2))


def admissible_delta_bound(theta: float) -> float:
    """Upper bound on the window exponent delta that guarantees consistency.

    For a true slope theta in (-2, 0) the bound is
    min(2|theta| / (4|theta| + 1), |theta| / (|theta| + max(|theta|-1, 0) + 1)).
    """
    if not -2.0 < theta < 0.0:
        raise OutOfRangeTheta(f"theta must lie in (-2, 0), got {theta}")
    t = abs(theta)
    return min(2.0 * t / (4.0 * t + 1.0), t / (t + max(t - 1.0, 0.0) + 1.0))


def classify_lrd_variance(fit: RegressionFit) -> str:
    """"LRD" when the variance-plot slope exceeds -1, else "non-LRD"."""
    return "LRD" if fit.slope > VARIANCE_LRD_THRESHOLD else "non-LRD"
