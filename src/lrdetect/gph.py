"""Spectral-domain log-periodogram (GPH) regression at Fourier frequencies: a series'
periodogram is one array of ordinates, whose windows the kernel ``WindowGrid`` fits in logs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WindowExceedsSeries, ZeroPeriodogramOrdinate, echo
from .series import RegressionFit, TimeSeries, _log_curve_slope

# A GPH estimate of d above this value means LRD.
GPH_LRD_THRESHOLD = 0.0


@dataclass(frozen=True)
class GphConfig:
    """Frequency window for the log-periodogram regression.

    ``trim`` is the lowest Fourier-frequency index entering the regression
    (trim = 1 means no trimming); ``bandwidth`` is the highest.  Windows may
    extend past the Nyquist index up to n - 1 for grid compatibility: the
    ordinate at index j then aliases the one at n - j while the regressor
    keeps the literal frequency 2*pi*j/n.
    """

    trim: int
    bandwidth: int

    def __post_init__(self):
        if self.trim < 1:
            raise ValueError(f"trim must be >= 1, got {echo.repr(self.trim)}")
        if self.bandwidth < self.trim + 1:
            raise ValueError(f"bandwidth must exceed trim, got {echo.repr((self.trim, self.bandwidth))}")

    def resolve(self, n: int) -> tuple[int, int]:
        """Concrete (trim, bandwidth) for a series of length n; bandwidth <= n - 1,
        the highest Fourier index below n."""
        if self.bandwidth > n - 1:
            raise WindowExceedsSeries(f"bandwidth {echo.repr(self.bandwidth)} exceeds n - 1 = {n - 1}")
        return self.trim, self.bandwidth


@np.errstate(over="ignore", invalid="ignore")
def ordinate_rows(values: np.ndarray) -> np.ndarray:
    """Periodogram ordinates I(2*pi*j/n) for every index j = 0..n-1, per row.

    I(lambda) = |sum_k x(k) e^{-ik*lambda}|^2 / (2*pi*n), computed from one
    real FFT along the rows; indices past the Nyquist fold back via
    I_j = I_{n-j}.  An ordinate that overflows comes out inf or nan, without
    a warning.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[1]
    if n < 2:
        raise ValueError("periodogram needs at least 2 samples")
    half = np.abs(np.fft.rfft(values, axis=1)) ** 2 / (2.0 * np.pi * n)
    size = half.shape[1]
    out = np.empty(values.shape)
    out[:, :size] = half
    out[:, size:] = half[:, n - size : 0 : -1]
    return out


def full_ordinates(x: TimeSeries) -> np.ndarray:
    """Periodogram ordinates of one series at every index j = 0..n-1, a read-only
    array; entries 1..floor((n-1)/2) are the canonical Fourier frequencies."""
    ordinates = ordinate_rows(x.values[None, :])[0]
    ordinates.setflags(write=False)
    return ordinates


def gph_regressors(indices: np.ndarray, n: int) -> np.ndarray:
    """Regressors -2*log(lambda_j) of the log-periodogram regression, lambda_j = 2*pi*j/n."""
    return -2.0 * np.log(2.0 * np.pi * indices / n)


def gph_from_ordinates(ordinates: np.ndarray, n: int, cfg: GphConfig) -> RegressionFit:
    """Log-periodogram regression on precomputed full-grid ordinates.

    Regresses log I(lambda_j) on -2*log(lambda_j) for j = trim..bandwidth;
    the slope estimates the memory parameter d.  A non-finite (overflowing),
    negative or zero window ordinate raises an error naming its first indices.
    """
    trim, bandwidth = cfg.resolve(n)
    indices = np.arange(trim, bandwidth + 1)
    xs, used = gph_regressors(indices, n), np.asarray(ordinates, dtype=np.float64)[indices]
    return _log_curve_slope(xs, used, trim, "ordinate at frequency indices", ZeroPeriodogramOrdinate)


def gph_estimate(x: TimeSeries, cfg: GphConfig) -> RegressionFit:
    """Trimmed GPH estimate of the memory parameter d for one series."""
    return gph_from_ordinates(full_ordinates(x), x.n, cfg)


def classify_lrd_gph(fit: RegressionFit) -> str:
    """"LRD" when the estimated memory parameter is strictly positive, else "non-LRD"."""
    return "LRD" if fit.slope > GPH_LRD_THRESHOLD else "non-LRD"
