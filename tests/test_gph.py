import math

import numpy as np
import pytest

from lrdetect import (
    FgnParams,
    GphConfig,
    TimeSeries,
    WindowExceedsSeries,
    ZeroPeriodogramOrdinate,
    classify_lrd_gph,
    classify_lrd_variance,
    full_ordinates,
    gph_estimate,
    gph_from_ordinates,
    ols_slope,
    periodogram,
    replication_seed,
    simulate_fgn,
)
from lrdetect.oracles import brute_force_dft_periodogram


def fit_with_slope(slope):
    return ols_slope([0.0, 1.0], [0.0, slope])


def test_constant_series_has_zero_ordinates():
    p = periodogram(TimeSeries([4.0] * 64))
    assert np.allclose(p.ordinates, 0.0, atol=1e-25)
    with pytest.raises(ZeroPeriodogramOrdinate):
        gph_estimate(TimeSeries([4.0] * 64), GphConfig(trim=1, bandwidth=10))


def test_pure_cosine_concentrates_at_its_frequency():
    n, j0 = 128, 9
    k = np.arange(1, n + 1)
    x = TimeSeries(np.cos(2 * np.pi * k * j0 / n))
    p = periodogram(x)
    want = n / (8 * np.pi)
    assert abs(p.ordinates[j0 - 1] - want) < 1e-9 * want
    others = np.delete(p.ordinates, j0 - 1)
    assert np.all(others < 1e-12 * want)


def test_parseval_identity():
    rng = np.random.default_rng(31)
    for n in (33, 64, 101):
        v = rng.standard_normal(n)
        ords = full_ordinates(TimeSeries(v))
        lhs = (2 * np.pi / n) * math.fsum(ords)
        rhs = math.fsum(v * v) / n
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_fft_matches_brute_force_small():
    rng = np.random.default_rng(32)
    v = rng.standard_normal(129)
    fast = periodogram(TimeSeries(v))
    brute = brute_force_dft_periodogram(TimeSeries(v))
    assert np.allclose(fast.ordinates, brute.ordinates, rtol=1e-8, atol=1e-13)


def test_injected_log_linear_ordinates_recover_slope():
    n, d = 400, 0.3
    indices = np.arange(1, n)
    b = -2.0 * np.log(2 * np.pi * indices / n)
    ords = np.concatenate([[1.0], np.exp(0.7 + d * b)])
    fit = gph_from_ordinates(ords, n, GphConfig(trim=1, bandwidth=150))
    assert abs(fit.slope - d) < 1e-10


def test_iid_mean_estimate_near_zero():
    total = 0.0
    reps = 200
    cfg = GphConfig(trim=1, bandwidth=100)  # w = floor(sqrt(n))
    for r in range(reps):
        s = simulate_fgn(FgnParams(hurst=0.5, n=10_000), replication_seed(808, "fgn", 0, r))
        total += gph_estimate(s, cfg).slope
    assert abs(total / reps) < 0.05


def test_fgn_mean_estimate_near_h_minus_half():
    total = 0.0
    reps = 200
    cfg = GphConfig(trim=1, bandwidth=100)
    for r in range(reps):
        s = simulate_fgn(FgnParams(hurst=0.7, n=10_000), replication_seed(808, "fgn", 1, r))
        total += gph_estimate(s, cfg).slope
    assert abs(total / reps - 0.2) < 0.05


def test_classification_threshold():
    assert classify_lrd_gph(fit_with_slope(0.2)) == "LRD"
    assert classify_lrd_gph(fit_with_slope(-0.1)) == "non-LRD"
    assert classify_lrd_gph(fit_with_slope(0.0)) == "non-LRD"


def test_mean_shift_invariance():
    rng = np.random.default_rng(33)
    v = rng.standard_normal(200)
    base = periodogram(TimeSeries(v))
    shifted = periodogram(TimeSeries(v + 100.0))
    assert np.allclose(shifted.ordinates, base.ordinates, rtol=1e-9, atol=1e-12)


def test_scale_equivariance_and_affine_classification():
    rng = np.random.default_rng(34)
    v = rng.standard_normal(300)
    cfg = GphConfig(trim=1, bandwidth=17)
    base = periodogram(TimeSeries(v))
    base_fit = gph_estimate(TimeSeries(v), cfg)
    for a, c in ((3.0, 0.0), (-0.5, 12.0)):
        scaled = periodogram(TimeSeries(a * v + c))
        assert np.allclose(scaled.ordinates, a * a * base.ordinates, rtol=1e-9, atol=1e-12)
        fit = gph_estimate(TimeSeries(a * v + c), cfg)
        assert abs(fit.slope - base_fit.slope) < 1e-9
        assert classify_lrd_gph(fit) == classify_lrd_gph(base_fit)


def test_thresholds_are_consistent_translations():
    # slope > -1 for the variance classifier corresponds exactly to
    # (slope + 1) / 2 > 0 for the spectral one
    for theta in (-1.7, -1.0, -0.999, -0.5, -1e-9):
        variance_fit = fit_with_slope(theta)
        translated = fit_with_slope((theta + 1.0) / 2.0)
        assert (classify_lrd_variance(variance_fit) == "LRD") == (
            classify_lrd_gph(translated) == "LRD"
        )


def test_window_beyond_nyquist_uses_aliased_ordinates():
    rng = np.random.default_rng(35)
    v = rng.standard_normal(100)
    ords = full_ordinates(TimeSeries(v))
    assert np.allclose(ords[1:50], ords[99:50:-1], rtol=1e-12, atol=0)
    fit = gph_estimate(TimeSeries(v), GphConfig(trim=1, bandwidth=99))
    assert np.isfinite(fit.slope)
    with pytest.raises(WindowExceedsSeries):
        gph_estimate(TimeSeries(v), GphConfig(trim=1, bandwidth=100))


def test_config_validation():
    with pytest.raises(ValueError):
        GphConfig(trim=0, bandwidth=10)
    with pytest.raises(ValueError):
        GphConfig(trim=5, bandwidth=5)


def test_periodogram_needs_two_samples():
    with pytest.raises(ValueError):
        periodogram(TimeSeries([1.0]))
