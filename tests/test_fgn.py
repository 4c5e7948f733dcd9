import math
import re

import numpy as np
import pytest
from scipy.special import ndtri

from lrdetect import (
    EmbeddingFailure,
    FgnParams,
    OverflowValue,
    SubordinationParams,
    TimeSeries,
    replication_seed,
    simulate_fgn,
    subordinate,
)
from lrdetect import fgn
from lrdetect.cli import main
from lrdetect.fgn import (
    _EXP_M2,
    _autocovariance_vector,
    _dyadic_uniforms,
    _embedding_amplitudes,
    _ndtri,
    simulate_fgn_paths,
    uniform_draws,
)

import oracles


def test_autocovariance_white_noise():
    p = FgnParams(hurst=0.5, n=10)
    assert _autocovariance_vector(p, [0, 1, 1000]).tolist() == [1.0, 0.0, 0.0]


def test_autocovariance_persistent_lag_one():
    got = _autocovariance_vector(FgnParams(hurst=0.75, n=10), [1])[0]
    assert abs(got - 0.5 * (2**1.5 - 2.0)) < 1e-15


def test_autocovariance_matches_tail_asymptotics():
    # gamma(k) ~ sigma2 * H * (2H - 1) * k^(2H - 2) for large k
    for hurst in (0.3, 0.7, 0.9):
        p = FgnParams(hurst=hurst, n=10)
        k = 100_000
        want = hurst * (2 * hurst - 1) * k ** (2 * hurst - 2)
        assert abs(_autocovariance_vector(p, [k])[0] - want) < 1e-4 * abs(want)


def test_autocovariance_scales_with_sigma2():
    a = _autocovariance_vector(FgnParams(hurst=0.7, n=4, sigma2=1.0), [3])[0]
    b = _autocovariance_vector(FgnParams(hurst=0.7, n=4, sigma2=2.5), [3])[0]
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
    want = oracles.exact_mean_variance(oracles.autocovariance_vector(p, np.arange(n)).__getitem__, n)
    assert abs(want - n ** (2 * hurst - 2)) < 1e-12 * want
    got = means.var(ddof=1)
    se = want * math.sqrt(2.0 / (reps - 1))
    assert abs(got - want) <= 5 * se, f"{got} vs {want} (se {se})"


def test_sample_autocovariance_matches_theory():
    p = FgnParams(hurst=0.6, n=100_000)
    s = simulate_fgn(p, 31337)
    v = s.values - s.values.mean()
    batches = 50
    gamma = oracles.autocovariance_vector(p, np.arange(21))
    for lag in range(21):
        prods = v[: v.size - lag] * v[lag:]
        want = gamma[lag]
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
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            SubordinationParams(alpha)


@pytest.fixture
def empty_embedding_cache():
    _embedding_amplitudes.cache_clear()
    yield
    _embedding_amplitudes.cache_clear()


def test_embedding_failure_is_raised_and_reported(monkeypatch, tmp_path, capsys, empty_embedding_cache):
    # gamma(1) = 2 gamma(0) is no autocovariance: its circulant has a negative eigenvalue
    def broken(params, lags):
        gamma = _autocovariance_vector(params, lags)
        gamma[1] = 2.0 * gamma[0]
        return gamma

    monkeypatch.setattr(fgn, "_autocovariance_vector", broken)
    message = "circulant eigenvalue -2.783e+00 below tolerance for H=0.7, n=50"
    with pytest.raises(EmbeddingFailure, match=rf"^{re.escape(message)}$"):
        simulate_fgn(FgnParams(0.7, 50), 1)
    out_dir = tmp_path / "out"
    argv = ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "50", "--seed", "1"]
    assert main([*argv, "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def _ulps(a, b):
    """Units in the last place between same-signed doubles, elementwise."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


@pytest.fixture(scope="module")
def grid():
    """1.57 million simulator uniforms, about 73% of them on the central branch."""
    return uniform_draws(range(6), 1 << 18).ravel()


def test_inverse_cdf_matches_scipy_bit_for_bit_on_the_central_branch(grid):
    central = grid[(grid > _EXP_M2) & (grid <= 1.0 - _EXP_M2)]
    assert central.size > 10**6
    assert np.array_equal(_ndtri(central.copy()), ndtri(central))


def test_inverse_cdf_at_the_branch_edges():
    edges = []
    for edge in (_EXP_M2, 1.0 - _EXP_M2):
        below, above = np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)
        edges += [np.nextafter(below, 0.0), below, edge, above, np.nextafter(above, 1.0)]
    u = np.array(edges)
    got, ref = _ndtri(u.copy()), ndtri(u)
    central = (u > _EXP_M2) & (u <= 1.0 - _EXP_M2)
    assert central.tolist() == [False, False, False, True, True] + [True, True, True, False, False]
    assert np.array_equal(got[central], ref[central])
    # the tail side runs numpy's log, which may differ from the C library's in the last bits
    assert _ulps(got[~central], ref[~central]).max() <= 5


def test_inverse_cdf_tails_within_a_few_ulp_of_scipy(grid):
    tail = grid[(grid <= _EXP_M2) | (grid > 1.0 - _EXP_M2)]
    got, ref = _ndtri(tail.copy()), ndtri(tail)
    differing = np.count_nonzero(got != ref)
    print(f"tail draws differing from scipy.special.ndtri: {differing} of {tail.size}")
    assert _ulps(got, ref).max() <= 5
    # numpy's log differs from the C library's on about 5e-4 of tail inputs
    assert differing <= 2e-3 * tail.size


def test_inverse_cdf_at_the_grid_extremes():
    # below exp(-32) = 1.27e-14, or within it of 1, x = sqrt(-2 log y) >= 8 takes P2/Q2
    deep = np.geomspace(2.0**-54, 1.26e-14, 40)
    ends = (np.arange(1, 60) * 2.0**-53)[::-1]
    u = np.concatenate([deep, [1.27e-14, 1e-10, 1e-3, 0.5, 1 - 1e-3], 1.0 - ends])
    got, ref = _ndtri(u.copy()), ndtri(u)
    assert np.isfinite(got).all()
    assert np.all(np.diff(got) > 0)
    assert np.array_equal(np.sign(got), np.sign(ref))
    assert _ulps(np.abs(got), np.abs(ref)).max() <= 5
    assert got[deep.size + 3] == 0.0


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_blocked_inverse_cdf_matches_one_block(monkeypatch, chunk):
    u = uniform_draws([5, 6], 2501)  # rows and blocks end at different draws
    whole = _ndtri(u.copy())
    monkeypatch.setattr(fgn, "_CHUNK", chunk)
    assert np.array_equal(_ndtri(u.copy()), whole)


def test_raw_words_map_strictly_inside_the_unit_interval():
    # 2**64 - 1 keeps k = 2**53 - 1, whose (k + 1/2) / 2**53 rounds to 1
    words = np.array([0, 1 << 11, 2**64 - 1], dtype=np.uint64)
    u = _dyadic_uniforms(words, out=np.empty(3))
    assert u.tolist() == [2.0**-54, 1.5 * 2.0**-53, 1.0 - 2.0**-53]
    assert np.isfinite(_ndtri(u)).all()


@pytest.mark.parametrize("chunk,size", [(1, 50), (3, 1000), (None, 2 * fgn._CHUNK + 5)])
def test_blocked_draws_continue_one_stream(monkeypatch, chunk, size):
    if chunk is not None:
        monkeypatch.setattr(fgn, "_CHUNK", chunk)
    seeds = [0, 2**64 - 1]
    draws = uniform_draws(seeds, size)
    for row, seed in zip(draws, seeds):
        assert np.array_equal(row, oracles.philox_uniforms(seed, size))
