"""Exact fractional Gaussian noise simulation and the subordinated heavy-tailed process."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Philox

from .errors import EmbeddingFailure, OverflowValue
from .series import TimeSeries

# Eigenvalues of the covariance circulant may dip this far below zero
# (relative to the largest one) before simulation aborts; the embedding is
# nonnegative definite in exact arithmetic, so anything worse signals a bug.
_EIGENVALUE_TOL = 1e-9

# Lag above which the direct second difference of k^(2H) loses too many
# digits to cancellation and the series expansion takes over.
_SERIES_LAG = 16

# Draws per block: raw words and the inverse CDF's temporaries stay this small.
_CHUNK = 1 << 16

# Longest path simulated: one series of this length and its estimates take
# about 1 GB, since memory grows linearly with the length.
MAX_LENGTH = 10**7

# The largest double below 1: k = 2**53 - 1 makes (k + 1/2) / 2**53 round to 1.
_MAX_UNIFORM = 1.0 - 2.0**-53

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the inverse normal CDF scipy.special.ndtri runs.  For
# exp(-2) < u <= 1 - exp(-2), with y = u - 1/2, the normal is
# sqrt(2 pi) (y + y y^2 P0(y^2) / Q0(y^2)); in the tails, with
# x = sqrt(-2 log min(u, 1 - u)) and z = 1/x, it is
# +-(x - log(x)/x - z P(z) / Q(z)), with P1/Q1 for x < 8 and P2/Q2 beyond.
# Each Q has a leading coefficient of 1, left out here as in Cephes.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242e0
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


@dataclass(frozen=True)
class FgnParams:
    """Hurst index, path length, and one-step variance of a fractional Gaussian noise."""

    hurst: float
    n: int
    sigma2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if not 1 <= self.n <= MAX_LENGTH:
            raise ValueError(f"length must lie in [1, {MAX_LENGTH}], got {self.n}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")


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
    draws what a fresh ``Philox(key=seed)`` would; a row's raw words are drawn
    ``_CHUNK`` at a time, since consecutive ``random_raw`` calls continue one stream,
    into the result's own bytes, which are then converted in place.
    """
    seeds = [int(seed) for seed in seeds]
    for seed in seeds:
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    bits = Philox(key=0)
    state = bits.state  # zero counter, empty buffer: a fresh generator's state
    out = np.empty((len(seeds), size))
    for row, seed in zip(out.view(np.uint64), seeds):
        state["state"]["key"] = np.array([seed, 0], dtype=np.uint64)
        bits.state = state
        for start in range(0, size, _CHUNK):
            block = row[start : start + _CHUNK]
            block[...] = bits.random_raw(block.size)
    flat = out.reshape(-1)
    words = flat.view(np.uint64)
    for start in range(0, flat.size, _CHUNK):
        _dyadic_uniforms(words[start : start + _CHUNK], out=flat[start : start + _CHUNK])
    return out


def _dyadic_uniforms(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(k + 1/2) / 2**53 with k = word >> 11 for each raw 64-bit word, at most
    ``_MAX_UNIFORM``, into ``out``, which may be the words' own memory.

    Generator.integers(0, 2**53) draws k the same way: Lemire's bounded draw
    never rejects a power-of-two range.
    """
    np.right_shift(words, 11, out=out, casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    return np.minimum(out, _MAX_UNIFORM, out=out)


def _polevl(x: np.ndarray, coef, out=None) -> np.ndarray:
    """coef[0] x^N + ... + coef[N] by Horner's rule, in Cephes' operation order."""
    out = np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef, out=None) -> np.ndarray:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: ``_polevl`` with a leading 1."""
    out = np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _ndtri_tail(u: np.ndarray) -> np.ndarray:
    """Cephes ndtri of uniforms outside (exp(-2), 1 - exp(-2)]."""
    x = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))  # 1 - u is exact above 1/2
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)  # u < exp(-32)
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x0 = x - np.log(x) / x
    return np.copysign(x0 - x1, u - 0.5)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of the uniforms in ``u`` (contiguous, in (0, 1)),
    written over them; Cephes ndtri in C's operation order, ``_CHUNK`` at a time.

    Each block evaluates the central branch in full and its tail values by
    index, so the central branch matches scipy.special.ndtri bit for bit; the
    tails differ from it only where numpy's ``log`` differs from the C library's.
    """
    flat = u.reshape(-1)
    buffers = np.empty((4, min(flat.size, _CHUNK)))
    for start in range(0, flat.size, _CHUNK):
        block = flat[start : start + _CHUNK]
        y, y2, num, den = buffers[:, : block.size]
        tails = np.flatnonzero((block <= _EXP_M2) | (block > 1.0 - _EXP_M2))
        tail_values = _ndtri_tail(block[tails])
        # x = y + y * (y2 * P0(y2) / Q0(y2)), then sqrt(2 pi) x
        np.subtract(block, 0.5, out=y)
        np.multiply(y, y, out=y2)
        _polevl(y2, _P0, num)
        num *= y2
        num /= _p1evl(y2, _Q0, den)
        num *= y
        num += y
        np.multiply(num, _S2PI, out=block)
        block[tails] = tail_values
    return u


@lru_cache(maxsize=16)
def _embedding_amplitudes(params: FgnParams) -> np.ndarray:
    """Square roots of the n distinct covariance-circulant eigenvalues, cached per params.

    The circulant's first row (gamma(0), ..., gamma(n-1), gamma(n-2), ...,
    gamma(1)) is real and even, so its m = 2(n-1) eigenvalues are real, with
    lambda_(m-k) = lambda_k: lambda_0..lambda_(n-1) are the DCT-I of
    gamma(0..n-1), taken as numpy's real FFT of the row (``scipy.fft.dct``
    left about 16 MB resident after the call at n = 10^6).  They are
    nonnegative in exact arithmetic for every H in (0, 1).  A sigma2 so large
    that they overflow is an OverflowValue.
    """
    n = params.n
    # an overflowing covariance or eigenvalue is caught below, by the extremes
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = _autocovariance_vector(params, np.arange(n))
        row = np.concatenate([gamma, gamma[n - 2 : 0 : -1]])
        del gamma
        spectrum = np.fft.rfft(row)
        del row
        eigenvalues = spectrum.real
        low, high = eigenvalues.min(), eigenvalues.max()  # nan propagates through both
    if not math.isfinite(low) or not math.isfinite(high):
        raise OverflowValue(f"circulant eigenvalues overflow for sigma2={params.sigma2}, n={n}")
    if low < -_EIGENVALUE_TOL * high:
        raise EmbeddingFailure(f"circulant eigenvalue {low:.3e} below tolerance for H={params.hurst}, n={n}")
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
        return math.sqrt(params.sigma2) * _ndtri(uniform_draws(seeds, 1))

    amplitudes = _embedding_amplitudes(params)  # first: its peak then holds no draws
    m = 2 * (n - 1)
    draws = _ndtri(uniform_draws(seeds, m))
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
