import math

import numpy as np
import pytest

from lrdetect import (
    FgnParams,
    OverflowValue,
    SubordinationParams,
    TimeSeries,
    fgn_autocovariance,
    replication_seed,
    simulate_fgn,
    subordinate,
)
from lrdetect import oracles
from lrdetect.fgn import _autocovariance_vector, _embedding_amplitudes, simulate_fgn_paths


def test_autocovariance_white_noise():
    p = FgnParams(hurst=0.5, n=10)
    assert fgn_autocovariance(p, 0) == 1.0
    assert fgn_autocovariance(p, 1) == 0.0
    assert fgn_autocovariance(p, 1000) == 0.0


def test_autocovariance_persistent_lag_one():
    got = fgn_autocovariance(FgnParams(hurst=0.75, n=10), 1)
    assert abs(got - 0.5 * (2**1.5 - 2.0)) < 1e-15


def test_autocovariance_matches_tail_asymptotics():
    # gamma(k) ~ sigma2 * H * (2H - 1) * k^(2H - 2) for large k
    for hurst in (0.3, 0.7, 0.9):
        p = FgnParams(hurst=hurst, n=10)
        k = 100_000
        want = hurst * (2 * hurst - 1) * k ** (2 * hurst - 2)
        assert abs(fgn_autocovariance(p, k) - want) < 1e-4 * abs(want)


def test_autocovariance_scales_with_sigma2():
    a = fgn_autocovariance(FgnParams(hurst=0.7, n=4, sigma2=1.0), 3)
    b = fgn_autocovariance(FgnParams(hurst=0.7, n=4, sigma2=2.5), 3)
    assert abs(b - 2.5 * a) < 1e-15


def test_params_validation():
    with pytest.raises(ValueError):
        FgnParams(hurst=1.0, n=10)
    with pytest.raises(ValueError):
        FgnParams(hurst=0.5, n=0)
    with pytest.raises(ValueError):
        FgnParams(hurst=0.5, n=10, sigma2=0.0)


def test_simulation_is_deterministic():
    p = FgnParams(hurst=0.8, n=513)
    a = simulate_fgn(p, 99)
    b = simulate_fgn(p, 99)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, simulate_fgn(p, 100).values)


@pytest.mark.parametrize("n,seed", [(8, -1), (8, 2**64), (1, -1)])
def test_simulation_rejects_out_of_range_seed(n, seed):
    with pytest.raises(ValueError, match="seed"):
        simulate_fgn(FgnParams(hurst=0.7, n=n), seed)


def test_simulation_length_one():
    s = simulate_fgn(FgnParams(hurst=0.7, n=1), 4)
    assert s.n == 1 and np.isfinite(s.values[0])


@pytest.mark.parametrize("hurst", np.round(np.arange(0.05, 1.0, 0.05), 2).tolist())
def test_embedding_eigenvalues_nonnegative(hurst):
    amplitudes = _embedding_amplitudes(FgnParams(hurst=float(hurst), n=700))
    assert np.all(amplitudes >= 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 1000, 2**16 + 3])
@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.85])
def test_embedding_amplitudes_match_the_out_of_place_transform(n, hurst):
    # the DCT-I rounds differently from the complex FFT of the mirrored row;
    # the worst relative gap measured over these cases and H = 0.95 was 3.0e-11
    params = FgnParams(hurst=hurst, n=n)
    got = _embedding_amplitudes(params)
    assert got.size == n
    np.testing.assert_allclose(got, oracles.embedding_amplitudes(params)[:n], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 1000, 2**16 + 3])
@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.85])
def test_paths_match_the_out_of_place_transform(n, hurst):
    params = FgnParams(hurst=hurst, n=n, sigma2=2.5)
    seeds = [0, 7, 2**64 - 1]
    got = simulate_fgn_paths(params, seeds)
    assert got.shape == (3, n)
    assert np.abs(got - oracles.fgn_paths(params, seeds)).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 2**16 + 3])
@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.85])
def test_autocovariance_matches_the_out_of_place_series(n, hurst):
    params = FgnParams(hurst=hurst, n=n, sigma2=2.5)
    got = _autocovariance_vector(params, np.arange(n))
    assert got.tobytes() == oracles.autocovariance_vector(params, np.arange(n)).tobytes()
    lags = [40, 3, 0, 16, 15, 10**6]  # unsorted, both sides of the series cutoff
    assert _autocovariance_vector(params, lags).tobytes() == oracles.autocovariance_vector(params, lags).tobytes()


def test_white_noise_lag_one_autocovariance():
    s = simulate_fgn(FgnParams(hurst=0.5, n=100_000), 13)
    v = s.values - s.values.mean()
    lag1 = float(v[:-1] @ v[1:] / v.size)
    assert abs(lag1) < 0.02


def test_pooled_sample_variance():
    total = 0.0
    reps = 200
    for r in range(reps):
        s = simulate_fgn(FgnParams(hurst=0.7, n=10_000), replication_seed(909, "fgn", 0, r))
        total += s.values.var()
    assert abs(total / reps - 1.0) < 0.03


def test_block_mean_variance_matches_exact_law():
    # Var of the n-block mean equals sigma2 * n^(2H-2) exactly; Monte Carlo
    # estimate must sit within 5 standard errors of it.
    n, reps, hurst = 256, 400, 0.75
    p = FgnParams(hurst=hurst, n=n)
    means = np.array(
        [simulate_fgn(p, replication_seed(321, "fgn", 0, r)).values.mean() for r in range(reps)]
    )
    want = oracles.exact_mean_variance(lambda k: fgn_autocovariance(p, k), n)
    assert abs(want - n ** (2 * hurst - 2)) < 1e-12 * want
    got = means.var(ddof=1)
    se = want * math.sqrt(2.0 / (reps - 1))
    assert abs(got - want) <= 5 * se, f"{got} vs {want} (se {se})"


def test_sample_autocovariance_matches_theory():
    p = FgnParams(hurst=0.6, n=100_000)
    s = simulate_fgn(p, 31337)
    v = s.values - s.values.mean()
    batches = 50
    for lag in range(21):
        prods = v[: v.size - lag] * v[lag:]
        want = fgn_autocovariance(p, lag)
        got = prods.mean()
        per_batch = prods[: (prods.size // batches) * batches].reshape(batches, -1).mean(axis=1)
        se = per_batch.std(ddof=1) / math.sqrt(batches)
        assert abs(got - want) <= 5 * se, f"lag {lag}: {got} vs {want} (se {se})"


def test_subordinate_values():
    assert np.array_equal(
        subordinate(TimeSeries([0.0, 0.0]), SubordinationParams(1.0)).values, [1.0, 1.0]
    )
    got = subordinate(TimeSeries([math.sqrt(2.0)]), SubordinationParams(1.0)).values[0]
    assert abs(got - math.e) < 1e-15
    got = subordinate(TimeSeries([2.0]), SubordinationParams(2.0)).values[0]
    assert abs(got - math.e) < 1e-15


def test_subordinate_monotone_in_magnitude():
    rng = np.random.default_rng(11)
    y1 = rng.standard_normal(500)
    y2 = y1 * rng.uniform(1.0, 3.0, size=500)  # |y1| <= |y2| pointwise
    p = SubordinationParams(0.8)
    out1 = subordinate(TimeSeries(y1), p).values
    out2 = subordinate(TimeSeries(y2), p).values
    assert np.all(out1 >= 1.0)
    assert np.all(out1 <= out2)


def test_subordinate_overflow():
    with pytest.raises(OverflowValue):
        subordinate(TimeSeries([50.0]), SubordinationParams(1e-3))


def test_subordination_params_validation():
    with pytest.raises(ValueError):
        SubordinationParams(0.0)
