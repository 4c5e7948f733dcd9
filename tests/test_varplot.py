import math

import numpy as np
import pytest

from lrdetect import (
    BlockVarianceCurve,
    DegenerateBlockVariance,
    FgnParams,
    OutOfRangeTheta,
    TimeSeries,
    VariancePlotConfig,
    WindowExceedsSeries,
    admissible_delta_bound,
    block_mean_variances,
    classify_lrd_variance,
    curve_slope,
    fgn_autocovariance,
    ols_slope,
    replication_seed,
    simulate_fgn,
    variance_plot_slope,
)
from lrdetect.oracles import exact_mean_variance


def fit_with_slope(slope):
    # exact-slope fixture: the two-point design reproduces the slope verbatim
    return ols_slope([0.0, 1.0], [0.0, slope])


def test_block_variance_hand_example():
    curve = block_mean_variances(TimeSeries([1.0, 2.0, 3.0]), 2, 2)
    assert curve.s2[0] == 0.25  # block means 1.5, 2.5 around 2


def test_block_variance_length_one_is_population_variance():
    curve = block_mean_variances(TimeSeries([1.0, 2.0, 3.0, 4.0]), 1, 1)
    assert curve.s2[0] == 1.25


def test_block_variance_constant_series_is_zero():
    curve = block_mean_variances(TimeSeries([3.0] * 50), 1, 10)
    assert np.all(curve.s2 == 0.0)
    assert curve.zero_lengths.tolist() == list(range(1, 11))
    with pytest.raises(DegenerateBlockVariance):
        curve_slope(curve)


def test_block_variance_window_validation():
    x = TimeSeries([1.0, 2.0, 3.0])
    with pytest.raises(WindowExceedsSeries):
        block_mean_variances(x, 1, 4)
    with pytest.raises(ValueError):
        block_mean_variances(x, 0, 2)


def test_injected_power_law_recovers_slope():
    lengths = np.arange(1, 51)
    curve = BlockVarianceCurve(lengths, 3.7 * lengths ** -0.6)
    fit = curve_slope(curve)
    assert abs(fit.slope - (-0.6)) < 1e-10


def test_iid_series_slope_near_minus_one():
    s = simulate_fgn(FgnParams(hurst=0.5, n=100_000), 11)
    fit = variance_plot_slope(s, VariancePlotConfig(n1=1, n2=30))
    assert abs(fit.slope - (-1.0)) < 0.1


def test_fgn_slope_near_two_h_minus_two():
    s = simulate_fgn(FgnParams(hurst=0.7, n=100_000), 12)
    fit = variance_plot_slope(s, VariancePlotConfig(n1=1, n2=30))
    assert abs(fit.slope - (-0.6)) < 0.1


def test_admissible_delta_bound_values():
    assert abs(admissible_delta_bound(-0.5) - 1.0 / 3.0) < 1e-15
    assert abs(admissible_delta_bound(-1.5) - 3.0 / 7.0) < 1e-15
    assert abs(admissible_delta_bound(-1.0) - 0.4) < 1e-15


def test_admissible_delta_bound_domain():
    for theta in (-2.0, 0.0, 0.5, -2.5):
        with pytest.raises(OutOfRangeTheta):
            admissible_delta_bound(theta)


def test_classification_threshold():
    assert classify_lrd_variance(fit_with_slope(-0.6)) == "LRD"
    assert classify_lrd_variance(fit_with_slope(-1.4)) == "non-LRD"
    assert classify_lrd_variance(fit_with_slope(-1.0)) == "non-LRD"


def test_shift_invariance():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(400)
    base = block_mean_variances(TimeSeries(x), 1, 20)
    for shift in (10.0, -250.0):
        shifted = block_mean_variances(TimeSeries(x + shift), 1, 20)
        assert np.all(np.abs(shifted.s2 - base.s2) <= 1e-9)


def test_scale_equivariance_and_affine_classification():
    rng = np.random.default_rng(22)
    x = rng.standard_normal(400)
    cfg = VariancePlotConfig(n1=1, n2=20)
    base_curve = block_mean_variances(TimeSeries(x), 1, 20)
    base_fit = variance_plot_slope(TimeSeries(x), cfg)
    for a, c in ((2.5, 0.0), (-3.0, 7.0), (0.02, -1.0)):
        curve = block_mean_variances(TimeSeries(a * x + c), 1, 20)
        assert np.allclose(curve.s2, a * a * base_curve.s2, rtol=1e-9, atol=0)
        fit = variance_plot_slope(TimeSeries(a * x + c), cfg)
        assert abs(fit.slope - base_fit.slope) < 1e-9
        want_intercept = base_fit.intercept + 2.0 * math.log(abs(a))
        assert abs(fit.intercept - want_intercept) < 1e-9
        assert classify_lrd_variance(fit) == classify_lrd_variance(base_fit)


def test_config_resolution_rules():
    cfg = VariancePlotConfig(delta=0.25, m=4.0)
    assert cfg.resolve(4096) == (8, 32)
    assert cfg.resolve(16384) == (11, 46)
    # clamping to the series length warns instead of failing
    with pytest.warns(RuntimeWarning):
        low, high = VariancePlotConfig(delta=0.9, m=3.0).resolve(50)
    assert high == 50 and low >= 1
    with pytest.raises(WindowExceedsSeries):
        VariancePlotConfig(n1=1, n2=100).resolve(50)


def test_config_validation():
    with pytest.raises(ValueError):
        VariancePlotConfig()
    with pytest.raises(ValueError):
        VariancePlotConfig(n1=1, n2=4, delta=0.3, m=2.0)
    with pytest.raises(ValueError):
        VariancePlotConfig(n1=4, n2=4)
    with pytest.raises(ValueError):
        VariancePlotConfig(delta=1.2, m=2.0)
    with pytest.raises(ValueError):
        VariancePlotConfig(delta=0.3, m=1.0)


@pytest.mark.parametrize("hurst,tag", [(0.7, 0), (0.4, 1)])
def test_expected_block_variance_matches_oracle(hurst, tag):
    # mean of S_l^2 over replications vs the exact mean variance, allowing
    # 5 Monte Carlo standard errors plus an O(l/n) bias margin
    n, reps = 20_000, 200
    p = FgnParams(hurst=hurst, n=n)
    curves = np.empty((reps, 10))
    for r in range(reps):
        s = simulate_fgn(p, replication_seed(4242, "fgn", tag, r))
        curves[r] = block_mean_variances(s, 1, 10).s2
    mean_curve = curves.mean(axis=0)
    se = curves.std(axis=0, ddof=1) / math.sqrt(reps)
    for i, length in enumerate(range(1, 11)):
        want = exact_mean_variance(lambda k: fgn_autocovariance(p, k), length)
        allowance = 5 * se[i] + 30.0 * (length / n) * want
        assert abs(mean_curve[i] - want) <= allowance, f"l={length}"
