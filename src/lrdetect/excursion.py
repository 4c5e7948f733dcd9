"""Threshold-indicator transform: maps a series to bounded excursion counts.

Classifying the transformed series with either estimator detects long memory
of the original series in the indicators-of-excursions sense, which survives
infinite variance and is invariant under strictly increasing transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import echo
from .fgn import uniform_draws
from .gph import GphConfig, classify_lrd_gph, gph_estimate
from .series import RegressionFit, TimeSeries
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


def draw_levels(psi: int, seed: int) -> QuantileMeasure:
    """psi uniform levels strictly inside (0, 1); a fixed seed yields a fixed
    panel meant to be shared by every series of a study."""
    if not 1 <= psi <= MAX_PSI:
        raise ValueError(f"psi must lie in [1, {MAX_PSI}], got {echo.repr(psi)}")
    return QuantileMeasure(uniform_draws([seed], psi, name="level seed")[0])


def _thresholds(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Each row's ceil(a * n)-th order statistics, ascending and read-only:
    left-continuous empirical quantiles, which commute with strictly increasing maps."""
    n = values.shape[1]
    ranks = np.sort(np.clip(np.ceil(levels * n).astype(np.int64), 1, n))
    thresholds = np.sort(values, axis=1)[:, ranks - 1]
    thresholds.setflags(write=False)
    return thresholds


def _exceedance_shares(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per entry, the share of its row's ascending thresholds strictly exceeded:
    each weighs 1/psi, and a tie x(k) = u_j is not exceeded."""
    psi = thresholds.shape[1]
    shares = np.concatenate([[0.0], np.cumsum(np.full(psi, 1.0 / psi))])
    out = np.empty(values.shape)
    for row, u, row_out in zip(values, thresholds, out):
        np.take(shares, np.searchsorted(u, row, side="left"), out=row_out)
    return out


def excursion_rows(values: np.ndarray, q: QuantileMeasure) -> np.ndarray:
    """Excursion-count transform of each row of a 2-D float array, against the row's own quantiles."""
    return _exceedance_shares(values, _thresholds(values, q.levels))


def resolve_quantiles(x: TimeSeries, q: QuantileMeasure) -> np.ndarray:
    """The series' thresholds at the levels of q, as a read-only ascending array."""
    return _thresholds(x.values[None, :], q.levels)[0]


def transform_series(x: TimeSeries, thresholds) -> TimeSeries:
    """Pointwise share of the thresholds, given in any order, that x(k) strictly
    exceeds; the values lie in [0, 1] and are nondecreasing in x(k)."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.ndim != 1 or thresholds.size < 1:
        raise ValueError("thresholds must be a nonempty one-dimensional sequence")
    return TimeSeries(_exceedance_shares(x.values[None, :], np.sort(thresholds)[None, :])[0])


def fit_series(
    x: TimeSeries,
    estimator: VariancePlotConfig | GphConfig,
    q: QuantileMeasure | None = None,
) -> tuple[tuple[int, int], RegressionFit, str]:
    """The single-series detector: the window, the fit and the LRD label.

    The window is resolved against the length of x before anything else, so a
    window that does not fit fails before any transform or periodogram.  With
    q, x is first mapped to its excursion counts against its own quantiles;
    these thresholds are order statistics and the counts compare with strict
    inequality, so the label is then exactly invariant under strictly
    increasing transforms of x.
    """
    window = estimator.resolve(x.n)
    if q is not None:
        x = transform_series(x, resolve_quantiles(x, q))
    if isinstance(estimator, VariancePlotConfig):
        fit = variance_plot_slope(x, VariancePlotConfig(*window))
        return window, fit, classify_lrd_variance(fit)
    fit = gph_estimate(x, estimator)
    return window, fit, classify_lrd_gph(fit)

