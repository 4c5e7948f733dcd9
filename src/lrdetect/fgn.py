"""Exact fractional Gaussian noise simulation and the subordinated heavy-tailed process."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .errors import EmbeddingFailure, OverflowValue
from .series import TimeSeries

# Eigenvalues of the covariance circulant may dip this far below zero
# (relative to the largest one) before simulation aborts; the embedding is
# nonnegative definite in exact arithmetic, so anything worse signals a bug.
_EIGENVALUE_TOL = 1e-9

# Lag above which the direct second difference of k^(2H) loses too many
# digits to cancellation and the series expansion takes over.
_SERIES_LAG = 16


@dataclass(frozen=True)
class FgnParams:
    """Hurst index, path length, and one-step variance of a fractional Gaussian noise."""

    hurst: float
    n: int
    sigma2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.n < 1:
            raise ValueError(f"length must be >= 1, got {self.n}")
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class SubordinationParams:
    """Scale parameter of the pointwise transform z = exp(y^2 / (2 * alpha))."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def _even_binomial_tail(a: float, u2) -> np.ndarray | float:
    # (1+u)^a + (1-u)^a - 2 = 2 * sum_{j>=1} binom(a, 2j) u^(2j); twelve terms
    # reach full double precision for u <= 1/16.
    coeff = 1.0
    upow = 1.0
    total = 0.0
    for j in range(1, 13):
        coeff *= (a - (2 * j - 2)) / (2 * j - 1)
        coeff *= (a - (2 * j - 1)) / (2 * j)
        upow = upow * u2
        total = total + coeff * upow
    return total


def fgn_autocovariance(params: FgnParams, k: int) -> float:
    """Covariance at integer lag k: (sigma2/2) * (|k+1|^2H + |k-1|^2H - 2|k|^2H).

    For lags beyond a small cutoff the direct second difference cancels
    catastrophically, so it is evaluated through the equivalent even-power
    binomial series in 1/k, accurate to a few ulp at every lag.
    """
    if k < 0:
        raise ValueError("lag must be nonnegative")
    return float(_autocovariance_vector(params, [k])[0])


def _autocovariance_vector(params: FgnParams, lags) -> np.ndarray:
    """fgn_autocovariance at each of the nonnegative integer ``lags`` in one vectorized pass."""
    a = 2.0 * params.hurst
    lags = np.asarray(lags, dtype=np.float64)
    near = lags < _SERIES_LAG
    out = np.empty(lags.shape)
    head, tail = lags[near], lags[~near]
    out[near] = 0.5 * params.sigma2 * ((head + 1.0) ** a + np.abs(head - 1.0) ** a - 2.0 * head**a)
    out[~near] = params.sigma2 * tail**a * _even_binomial_tail(a, tail**-2)
    out[lags == 0] = params.sigma2
    return out


def uniform_draws(seeds, size: int, name: str = "seed") -> np.ndarray:
    """One row of ``size`` uniforms per seed, row i from a Philox generator keyed
    by ``seeds[i]``, on a strict-interior dyadic grid: a fixed draw count per
    variate, never 0 or 1.

    Every seed must lie in [0, 2**64); ``name`` labels one that does not in the
    ValueError.  One generator is re-keyed per row through its ``state``, which
    draws what a fresh ``Philox(key=seed)`` would.
    """
    seeds = [int(seed) for seed in seeds]
    for seed in seeds:
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    bits = np.random.Philox(key=0)
    state = bits.state  # zero counter, empty buffer: a fresh generator's state
    out = np.empty((len(seeds), size))
    for row, seed in zip(out, seeds):
        state["state"]["key"] = np.array([seed, 0], dtype=np.uint64)
        bits.state = state
        # Generator.integers(0, 2**53) draws x >> 11 from each raw word x:
        # Lemire's bounded draw never rejects a power-of-two range
        np.right_shift(bits.random_raw(size), 11, out=row, casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    return out


@lru_cache(maxsize=16)
def _embedding_amplitudes(params: FgnParams) -> np.ndarray:
    """Square roots of the covariance-circulant eigenvalues, cached per params.

    The circulant's first row is (gamma(0), ..., gamma(n-1), gamma(n-2), ...,
    gamma(1)); its FFT is real and nonnegative in exact arithmetic for every
    H in (0, 1).
    """
    n = params.n
    gamma = _autocovariance_vector(params, np.arange(n))
    # One buffer holds the circulant's first row, then its transform; it is
    # allocated after gamma, whose temporaries are freed by then.
    row = np.zeros(n + max(n - 2, 0), dtype=np.complex128)
    row.real[:n] = gamma
    row.real[n:] = gamma[n - 2 : 0 : -1]
    del gamma
    eigenvalues = np.fft.fft(row, out=row).real
    if eigenvalues.min() < -_EIGENVALUE_TOL * eigenvalues.max():
        raise EmbeddingFailure(
            f"circulant eigenvalue {eigenvalues.min():.3e} below tolerance "
            f"for H={params.hurst}, n={n}"
        )
    amplitudes = np.sqrt(np.clip(eigenvalues, 0.0, None))
    amplitudes.setflags(write=False)
    return amplitudes


def simulate_fgn_paths(params: FgnParams, seeds) -> np.ndarray:
    """Sample one fGN path per seed by circulant embedding; row i belongs to seeds[i].

    The covariance circulant of size 2(n-1) is diagonalized by the FFT; its
    eigenvalue spectrum scales independent complex Gaussians, so every row
    carries exactly the target finite-dimensional law.  Each seed draws from
    its own generator and one FFT along the rows transforms them all, so a
    row does not depend on the other seeds.  The normals of all rows are drawn,
    transformed and laid out as one batch.
    """
    n = params.n
    draws = ndtri(uniform_draws(seeds, 1 if n == 1 else 2 * (n - 1)))
    if n == 1:
        return math.sqrt(params.sigma2) * draws

    amplitudes = _embedding_amplitudes(params)
    m = amplitudes.size  # 2(n-1)
    w = np.empty(draws.shape, dtype=np.complex128)
    w[:, 0] = draws[:, 0]
    w[:, n - 1] = draws[:, 1]
    w[:, 1 : n - 1] = (draws[:, 2::2] + 1j * draws[:, 3::2]) / math.sqrt(2.0)
    del draws  # freed before the FFT allocates its scratch space
    np.conjugate(w[:, n - 2 : 0 : -1], out=w[:, n:])
    w *= amplitudes
    return np.fft.fft(w, axis=1, out=w).real[:, :n] / math.sqrt(m)


def simulate_fgn(params: FgnParams, seed: int) -> TimeSeries:
    """Sample one fGN path, exact in distribution; identical (params, seed)
    reproduce identical output."""
    return TimeSeries(simulate_fgn_paths(params, [seed])[0])


def subordinate(y: TimeSeries, params: SubordinationParams) -> TimeSeries:
    """Pointwise z(k) = exp(y(k)^2 / (2 * alpha)); every output value is >= 1.

    The process has infinite variance whenever alpha <= 2 * Var(y(1)).
    """
    exponents = y.values**2 / (2.0 * params.alpha)
    limit = math.log(np.finfo(np.float64).max)
    if exponents.max() > limit:
        raise OverflowValue(
            f"exp argument {exponents.max():.4g} exceeds the floating-point "
            f"range; alpha={params.alpha} is too small for this series"
        )
    return TimeSeries(np.exp(exponents))
