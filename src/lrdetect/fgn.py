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


def _even_binomial_tail(a: float, u2: np.ndarray) -> np.ndarray:
    # (1+u)^a + (1-u)^a - 2 = 2 * sum_{j>=1} binom(a, 2j) u^(2j); twelve terms
    # reach full double precision for u <= 1/16.  The sum runs in place on
    # three buffers, each step in the order of total = total + coeff * upow.
    coeff = 1.0
    upow = np.ones_like(u2)
    total = np.zeros_like(u2)
    term = np.empty_like(u2)
    for j in range(1, 13):
        coeff *= (a - (2 * j - 2)) / (2 * j - 1)
        coeff *= (a - (2 * j - 1)) / (2 * j)
        upow *= u2
        np.multiply(coeff, upow, out=term)
        total += term
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
    head = lags[near]
    out[near] = 0.5 * params.sigma2 * ((head + 1.0) ** a + np.abs(head - 1.0) ** a - 2.0 * head**a)
    out[lags == 0] = params.sigma2
    far = ~near
    tail = lags[far]
    del lags, near  # a float copy of integer lags is freed here
    # sigma2 * tail**a * series(tail**-2), multiplied left to right
    scaled = tail**a
    scaled *= params.sigma2
    scaled *= _even_binomial_tail(a, np.power(tail, -2, out=tail))
    out[far] = scaled
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
    """Square roots of the n distinct covariance-circulant eigenvalues, cached per params.

    The circulant's first row (gamma(0), ..., gamma(n-1), gamma(n-2), ...,
    gamma(1)) is real and even, so its m = 2(n-1) eigenvalues are real, with
    lambda_(m-k) = lambda_k: lambda_0..lambda_(n-1) are the DCT-I of
    gamma(0..n-1), taken as numpy's real FFT of the row (``scipy.fft.dct``
    left about 16 MB resident after the call at n = 10^6).  They are
    nonnegative in exact arithmetic for every H in (0, 1).
    """
    n = params.n
    gamma = _autocovariance_vector(params, np.arange(n))
    row = np.concatenate([gamma, gamma[n - 2 : 0 : -1]])
    del gamma
    spectrum = np.fft.rfft(row)
    del row
    eigenvalues = spectrum.real
    if eigenvalues.min() < -_EIGENVALUE_TOL * eigenvalues.max():
        raise EmbeddingFailure(
            f"circulant eigenvalue {eigenvalues.min():.3e} below tolerance "
            f"for H={params.hurst}, n={n}"
        )
    amplitudes = np.clip(eigenvalues, 0.0, None)  # contiguous, so the cache holds n values
    del spectrum, eigenvalues
    np.sqrt(amplitudes, out=amplitudes)
    amplitudes.setflags(write=False)
    return amplitudes


def simulate_fgn_paths(params: FgnParams, seeds) -> np.ndarray:
    """Sample one fGN path per seed by circulant embedding; row i belongs to seeds[i].

    The covariance circulant of size m = 2(n-1) is diagonalized by the DFT;
    its eigenvalues scale independent complex Gaussians w_k, so every row
    carries exactly the target finite-dimensional law.  The scaled draws are
    Hermitian (w_0 and w_(n-1) real, w_(m-k) = conj(w_k)), so the path, the
    real part of the DFT of w, is one inverse real FFT of conj(w_0..w_(n-1)).
    Each seed draws from its own generator and one transform along the rows
    serves them all, so a row does not depend on the other seeds.
    """
    n = params.n
    if n == 1:
        return math.sqrt(params.sigma2) * ndtri(uniform_draws(seeds, 1))

    amplitudes = _embedding_amplitudes(params)  # first: its peak then holds no draws
    m = 2 * (n - 1)
    draws = ndtri(uniform_draws(seeds, m))
    half = math.sqrt(0.5)
    # conj(w) with w_k = (a + i b) / sqrt(2) for 0 < k < n-1, filled in place
    w = np.empty((draws.shape[0], n), dtype=np.complex128)
    w[:, 0] = draws[:, 0]
    w[:, n - 1] = draws[:, 1]
    np.multiply(draws[:, 2::2], half, out=w.real[:, 1 : n - 1])
    np.multiply(draws[:, 3::2], -half, out=w.imag[:, 1 : n - 1])
    del draws  # freed before the transform allocates its output
    w *= amplitudes
    # norm="forward" leaves the inverse unscaled: sum_k conj(w_k) e^(2 pi i jk/m), the real DFT of w
    paths = np.fft.irfft(w, m, axis=1, norm="forward")
    del w
    return paths[:, :n] / math.sqrt(m)


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
