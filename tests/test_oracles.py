import math

import numpy as np
import pytest

from lrdetect import FgnParams, TimeSeries, block_mean_variances, full_ordinates
from lrdetect.fgn import _autocovariance_vector
from oracles import (
    brute_force_dft_periodogram,
    exact_mean_variance,
    naive_block_variances,
)


def test_white_noise_mean_variance():
    gamma = lambda k: 1.0 if k == 0 else 0.0
    for n in (1, 5, 100):
        assert exact_mean_variance(gamma, n) == 1.0 / n


def test_single_observation():
    assert exact_mean_variance(lambda k: 3.0 if k == 0 else 0.5, 1) == 3.0


@pytest.mark.parametrize("hurst", np.round(np.arange(0.05, 1.0, 0.05), 2).tolist())
def test_fgn_telescoping_identity(hurst):
    # summed identity vs the closed form sigma2 * n^(2H-2)
    p = FgnParams(hurst=float(hurst), n=10)
    gamma = _autocovariance_vector(p, np.arange(10_000)).__getitem__
    for n in (1, 2, 10, 100, 1_000, 10_000):
        got = exact_mean_variance(gamma, n)
        want = n ** (2 * float(hurst) - 2)
        assert abs(got - want) <= 1e-10 * want, f"n={n}"


def test_fgn_covariance_dominated_by_lag_zero():
    # necessary condition for positive semi-definiteness, spot-checked
    for hurst in (0.1, 0.4, 0.6, 0.9):
        p = FgnParams(hurst=hurst, n=10)
        top, *rest = _autocovariance_vector(p, [0, 1, 2, 7, 50, 1_000])
        assert all(abs(value) <= top for value in rest)


def test_scaled_mean_variance_converges_to_covariance_sum():
    # n * Var(mean) -> sum over all lags for absolutely summable covariances
    rho = 0.6
    gamma = lambda k: rho ** abs(k)
    want = (1.0 + rho) / (1.0 - rho)
    previous_gap = None
    for n in (100, 1_000, 10_000):
        gap = abs(n * exact_mean_variance(gamma, n) - want)
        if previous_gap is not None:
            assert gap < previous_gap
        previous_gap = gap
    assert previous_gap < 1e-3


def test_brute_force_spike_is_flat():
    n = 64
    x = np.zeros(n)
    x[0] = 1.0
    p = brute_force_dft_periodogram(TimeSeries(x))
    assert np.allclose(p, 1.0 / (2 * np.pi * n), rtol=1e-12, atol=0)


def test_brute_force_constant_is_zero():
    p = brute_force_dft_periodogram(TimeSeries([2.0] * 32))
    assert np.allclose(p, 0.0, atol=1e-25)


def test_brute_force_agrees_with_fft():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(50, 300))
        v = rng.standard_normal(n)
        fast = full_ordinates(TimeSeries(v))[1 : (n - 1) // 2 + 1]
        brute = brute_force_dft_periodogram(TimeSeries(v))
        scale = brute.max()
        assert np.allclose(fast, brute, rtol=1e-8, atol=1e-13 * scale)


def test_naive_block_variance_hand_example():
    curve = naive_block_variances(TimeSeries([1.0, 2.0, 3.0]), 2, 2)
    assert curve[0] == 0.25


def test_naive_block_variance_constant_is_zero():
    curve = naive_block_variances(TimeSeries([5.0] * 20), 1, 6)
    assert np.all(curve == 0.0)


def test_sliding_matches_naive():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(30, 200))
        x = TimeSeries(rng.standard_normal(n) * 10 + rng.uniform(-5, 5))
        fast = block_mean_variances(x, 1, n // 3)
        slow = naive_block_variances(x, 1, n // 3)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-15)
