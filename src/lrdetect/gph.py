"""Spectral-domain log-periodogram regression at Fourier frequencies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverflowValue, WindowExceedsSeries, ZeroPeriodogramOrdinate
from .series import RegressionFit, TimeSeries, ols_slope

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
            raise ValueError(f"trim must be >= 1, got {self.trim}")
        if self.bandwidth < self.trim + 1:
            raise ValueError(
                f"bandwidth must exceed trim, got ({self.trim}, {self.bandwidth})"
            )

    def resolve(self, n: int) -> tuple[int, int]:
        """Concrete (trim, bandwidth) for a series of length n; bandwidth <= n - 1,
        the highest Fourier index below n."""
        if self.bandwidth > n - 1:
            raise WindowExceedsSeries(f"bandwidth {self.bandwidth} exceeds n - 1 = {n - 1}")
        return self.trim, self.bandwidth


@dataclass(frozen=True)
class Periodogram:
    """Ordinates I(lambda_j) at the canonical Fourier frequencies 2*pi*j/n,
    j = 1..floor((n-1)/2)."""

    frequencies: np.ndarray
    ordinates: np.ndarray
    n: int

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        ords = np.asarray(self.ordinates, dtype=np.float64)
        if freqs.size != ords.size:
            raise ValueError("frequencies and ordinates must be equally long")
        if freqs.size != (self.n - 1) // 2:
            raise ValueError(f"expected {(self.n - 1) // 2} ordinates for n={self.n}")
        if np.any(ords < 0):
            raise ValueError("ordinates must be nonnegative")
        freqs.setflags(write=False)
        ords.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "ordinates", ords)


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
    """Periodogram ordinates of one series at every index j = 0..n-1."""
    return ordinate_rows(x.values[None, :])[0]


def gph_regressors(indices: np.ndarray, n: int) -> np.ndarray:
    """Regressors -2*log(lambda_j) of the log-periodogram regression, lambda_j = 2*pi*j/n."""
    return -2.0 * np.log(2.0 * np.pi * indices / n)


def periodogram(x: TimeSeries) -> Periodogram:
    """Periodogram at the canonical Fourier frequencies j = 1..floor((n-1)/2)."""
    n = x.n
    ords = full_ordinates(x)
    count = (n - 1) // 2
    return Periodogram(
        frequencies=2.0 * np.pi * np.arange(1, count + 1) / n,
        ordinates=ords[1 : count + 1],
        n=n,
    )


def gph_from_ordinates(ordinates: np.ndarray, n: int, cfg: GphConfig) -> RegressionFit:
    """Log-periodogram regression on precomputed full-grid ordinates.

    Regresses log I(lambda_j) on -2*log(lambda_j) for j = trim..bandwidth;
    the slope estimates the memory parameter d.  A non-finite (overflowing),
    negative or zero window ordinate raises an error naming its indices.
    """
    trim, bandwidth = cfg.resolve(n)
    indices = np.arange(trim, bandwidth + 1)
    used = np.asarray(ordinates, dtype=np.float64)[indices]
    for bad, error, what in (
        (~np.isfinite(used), OverflowValue, "overflowing (non-finite)"),
        (used < 0.0, ValueError, "negative"),
        (used == 0.0, ZeroPeriodogramOrdinate, "zero"),
    ):
        if bad.any():
            raise error(f"{what} ordinate at frequency indices {indices[bad].tolist()}")
    return ols_slope(gph_regressors(indices, n), np.log(used))


def gph_estimate(x: TimeSeries, cfg: GphConfig) -> RegressionFit:
    """Trimmed GPH estimate of the memory parameter d for one series."""
    return gph_from_ordinates(full_ordinates(x), x.n, cfg)


def classify_lrd_gph(fit: RegressionFit) -> str:
    """"LRD" when the estimated memory parameter is strictly positive, else "non-LRD"."""
    return "LRD" if fit.slope > GPH_LRD_THRESHOLD else "non-LRD"
