"""Threshold-indicator transform: maps a series to bounded excursion counts.

Classifying the transformed series with either estimator detects long memory
of the original series in the indicators-of-excursions sense, which survives
infinite variance and is invariant under strictly increasing transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fgn import uniform_draws
from .gph import GphConfig, classify_lrd_gph, gph_estimate
from .series import TimeSeries
from .varplot import VariancePlotConfig, classify_lrd_variance, variance_plot_slope

# Largest accepted number of quantile levels.  Each level costs memory in the
# panel, its thresholds and the transform, while past the series length extra
# levels add no distinct threshold.
MAX_PSI = 10**6


@dataclass(frozen=True)
class QuantileMeasure:
    """Probability levels a_1..a_psi in (0, 1), each carrying weight 1/psi."""

    levels: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.float64)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("levels must be a nonempty one-dimensional sequence")
        if np.any(levels <= 0.0) or np.any(levels >= 1.0):
            raise ValueError("every level must lie strictly inside (0, 1)")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    @property
    def psi(self) -> int:
        return int(self.levels.size)


@dataclass(frozen=True)
class ThresholdMeasure:
    """Discrete measure sum_j w_j * delta(u_j) with positive weights."""

    thresholds: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if thresholds.size != weights.size or thresholds.size < 1:
            raise ValueError("thresholds and weights must be nonempty and equally long")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        thresholds.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "weights", weights)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def draw_levels(psi: int, seed: int) -> QuantileMeasure:
    """psi uniform levels strictly inside (0, 1); a fixed seed yields a fixed
    panel meant to be shared by every series of a study."""
    if not 1 <= psi <= MAX_PSI:
        raise ValueError(f"psi must lie in [1, {MAX_PSI}], got {psi}")
    return QuantileMeasure(uniform_draws(seed, psi, name="level seed"))


def resolve_quantiles(x: TimeSeries, q: QuantileMeasure) -> ThresholdMeasure:
    """Thresholds at the ceil(a * n)-th order statistics of the series.

    This left-continuous empirical quantile commutes with strictly increasing
    maps, which the downstream invariance arguments rely on.
    """
    ordered = np.sort(x.values)
    ranks = np.ceil(q.levels * x.n).astype(np.int64)
    ranks = np.clip(ranks, 1, x.n)
    return ThresholdMeasure(ordered[ranks - 1], np.full(q.psi, 1.0 / q.psi))


def transform_series(x: TimeSeries, measure: ThresholdMeasure) -> TimeSeries:
    """Pointwise weighted count of strictly exceeded thresholds.

    output(k) = sum_j w_j * 1{x(k) > u_j}; values lie in [0, total weight]
    and are nondecreasing in x(k).  Ties x(k) = u_j count as not exceeded.
    """
    order = np.argsort(measure.thresholds, kind="stable")
    thresholds = measure.thresholds[order]
    cumulative = np.concatenate([[0.0], np.cumsum(measure.weights[order])])
    exceeded = np.searchsorted(thresholds, x.values, side="left")
    return TimeSeries(cumulative[exceeded])


def ie_pipeline(
    x: TimeSeries,
    q: QuantileMeasure,
    estimator: VariancePlotConfig | GphConfig,
) -> str:
    """Resolve quantile thresholds from the series itself, transform, classify.

    Because thresholds are order statistics and the indicators compare with
    strict inequality, the returned label is exactly invariant under strictly
    increasing transforms of the input.
    """
    transformed = transform_series(x, resolve_quantiles(x, q))
    if isinstance(estimator, VariancePlotConfig):
        return classify_lrd_variance(variance_plot_slope(transformed, estimator))
    if isinstance(estimator, GphConfig):
        return classify_lrd_gph(gph_estimate(transformed, estimator))
    raise TypeError(f"unsupported estimator config: {type(estimator).__name__}")
