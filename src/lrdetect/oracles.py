"""Brute-force reference implementations, used only by tests and acceptance runs.

Nothing here is performance-tuned or part of the public API; each function
restates a definition literally so the fast paths have an independent check.
"""

from __future__ import annotations

import csv
import math
from typing import Callable

import numpy as np

from .errors import WindowExceedsSeries
from .fgn import FgnParams, uniform_draws
from .gph import Periodogram
from .series import TimeSeries
from .study import _CSV_ROW, CSV_COLUMNS
from .varplot import BlockVarianceCurve

CovarianceFunction = Callable[[int], float]


def ols_slope(xs, ys) -> float:
    """Least-squares slope sum((x - xbar)(y - ybar)) / sum((x - xbar)^2), every
    sum compensated with ``math.fsum``."""
    x, y = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    dx = x - math.fsum(x) / x.size
    return math.fsum(dx * (y - math.fsum(y) / y.size)) / math.fsum(dx * dx)


def exact_mean_variance(gamma: CovarianceFunction, n: int) -> float:
    """Variance of the n-sample mean from the covariance function:

    (1/n) * (gamma(0) + 2 * sum_{k=1}^{n-1} (1 - k/n) * gamma(k)).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    terms = [(1.0 - k / n) * gamma(k) for k in range(1, n)]
    return (gamma(0) + 2.0 * math.fsum(terms)) / n


def brute_force_dft_periodogram(x: TimeSeries) -> Periodogram:
    """Literal O(n^2) evaluation of the defining sum; intended for n <= 2048."""
    v = x.values
    n = v.size
    if n < 2:
        raise ValueError("periodogram needs at least 2 samples")
    count = (n - 1) // 2
    times = np.arange(1, n + 1)
    ordinates = np.empty(count)
    for j in range(1, count + 1):
        lam = 2.0 * np.pi * j / n
        transform = np.sum(v * np.exp(-1j * lam * times))
        ordinates[j - 1] = abs(transform) ** 2 / (2.0 * np.pi * n)
    return Periodogram(
        frequencies=2.0 * np.pi * np.arange(1, count + 1) / n,
        ordinates=ordinates,
        n=n,
    )


def naive_block_variances(x: TimeSeries, n1: int, n2: int) -> BlockVarianceCurve:
    """Quadratic-time restatement of the block-variance definition."""
    if n1 < 1 or n2 < n1:
        raise ValueError(f"need 1 <= n1 <= n2, got ({n1}, {n2})")
    if n2 > x.n:
        raise WindowExceedsSeries(f"n2={n2} exceeds series length {x.n}")
    v = x.values
    out = np.empty(n2 - n1 + 1)
    for i, length in enumerate(range(n1, n2 + 1)):
        means = np.array([v[k : k + length].mean() for k in range(x.n - length + 1)])
        out[i] = ((means - means.mean()) ** 2).mean()
    return BlockVarianceCurve(np.arange(n1, n2 + 1), out)


def excursion_counts(x, levels) -> np.ndarray:
    """#{j : x(k) > x_(ceil(a_j n))} for every k, as one broadcast comparison."""
    x = np.asarray(x, dtype=np.float64)
    thresholds = np.sort(x)[np.ceil(np.asarray(levels) * x.size).astype(np.int64) - 1]
    return np.count_nonzero(x[:, None] > thresholds[None, :], axis=1)


def autocovariance_vector(params: FgnParams, lags) -> np.ndarray:
    """The fGN autocovariance at each lag, with the out-of-place twelve-term
    series (1+u)^a + (1-u)^a - 2 = 2 * sum_{j>=1} binom(a, 2j) u^(2j) in u = 1/k
    at lags k >= 16; the fast path must match it byte for byte."""
    a = 2.0 * params.hurst
    lags = np.asarray(lags, dtype=np.float64)
    near = lags < 16
    out = np.empty(lags.shape)
    head, tail = lags[near], lags[~near]
    out[near] = 0.5 * params.sigma2 * ((head + 1.0) ** a + np.abs(head - 1.0) ** a - 2.0 * head**a)
    u2 = tail**-2
    coeff, upow, total = 1.0, 1.0, 0.0
    for j in range(1, 13):
        coeff *= (a - (2 * j - 2)) / (2 * j - 1)
        coeff *= (a - (2 * j - 1)) / (2 * j)
        upow = upow * u2
        total = total + coeff * upow
    out[~near] = params.sigma2 * tail**a * total
    out[lags == 0] = params.sigma2
    return out


def embedding_amplitudes(params: FgnParams) -> np.ndarray:
    """Square roots of all 2(n-1) clipped covariance-circulant eigenvalues: the
    complex FFT of the first row (gamma(0), ..., gamma(n-1), gamma(n-2), ..., gamma(1))."""
    n = params.n
    gamma = autocovariance_vector(params, np.arange(n))
    first_row = np.concatenate([gamma, gamma[n - 2 : 0 : -1]])
    return np.sqrt(np.clip(np.fft.fft(first_row).real, 0.0, None))


def fgn_paths(params: FgnParams, seeds) -> np.ndarray:
    """Circulant-embedding fGN paths through full complex transforms: the
    Hermitian vector w of scaled draws, mirrored to all 2(n-1) entries, and the
    real part of its FFT, row i drawn from ``seeds[i]`` as the simulator draws it,
    with scipy's inverse normal CDF (scipy is a test dependency only)."""
    from scipy.special import ndtri

    n = params.n
    draws = ndtri(uniform_draws(seeds, 1 if n == 1 else 2 * (n - 1)))
    if n == 1:
        return math.sqrt(params.sigma2) * draws
    amplitudes = embedding_amplitudes(params)
    w = np.empty(draws.shape, dtype=np.complex128)
    w[:, 0] = draws[:, 0]
    w[:, n - 1] = draws[:, 1]
    w[:, 1 : n - 1] = (draws[:, 2::2] + 1j * draws[:, 3::2]) / math.sqrt(2.0)
    w[:, n:] = np.conjugate(w[:, n - 2 : 0 : -1])
    return np.fft.fft(w * amplitudes, axis=1).real[:, :n] / math.sqrt(amplitudes.size)


def report_csv_text(reports, n: int) -> str:
    """The metrics CSV text of length n, written row by row from report objects:
    the reports of that length sorted by (estimator, n1, n2), each formatted
    from its fields and its metric properties."""
    rows = sorted((r for r in reports if r.series_length == n), key=lambda r: (r.estimator, r.n1, r.n2))
    lines = [_CSV_ROW % tuple(getattr(r, column) for column in CSV_COLUMNS) for r in rows]
    return ",".join(CSV_COLUMNS) + "\r\n" + "".join(lines)


def csv_reader_series(path) -> TimeSeries:
    """The series CSV rules restated row by row through ``csv.reader``: an
    optional ``value`` header, empty rows skipped, exactly one column per row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    start = 1 if rows[0] and rows[0][0].strip().lower() == "value" else 0
    values = []
    for row in rows[start:]:
        if not row:
            continue
        if len(row) != 1:
            raise ValueError(f"{path}: expected a single column, got {len(row)}")
        values.append(float(row[0]))
    return TimeSeries(values)


def seed_hash(*entropy: int) -> int:
    """The study's seed hash through numpy's own ``SeedSequence``."""
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1, np.uint64)[0])


def philox_uniforms(seed: int, size: int) -> np.ndarray:
    """``size`` dyadic uniforms (k + 1/2) / 2**53 from a fresh Philox generator keyed
    by ``seed``, each at most the largest double below 1."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return np.minimum((rng.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)
