import math

import numpy as np
import pytest

from lrdetect import (
    DegenerateDesign,
    TimeSeries,
    ols_slope,
    read_series_csv,
    sample_mean,
    write_series_csv,
)


def test_sample_mean_basic():
    assert sample_mean(TimeSeries([1.0, 2.0, 3.0])) == 2.0
    assert sample_mean(TimeSeries([4.25] * 17)) == 4.25


def test_sample_mean_clt_bound():
    rng = np.random.default_rng(101)
    x = TimeSeries(rng.standard_normal(10_000))
    assert abs(sample_mean(x)) < 4 / math.sqrt(10_000)


def test_ols_exact_line():
    fit = ols_slope([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
    assert fit.slope == -1.0
    assert abs(fit.intercept) < 1e-15


def test_ols_constant_response():
    fit = ols_slope([0.0, 1.0], [5.0, 5.0])
    assert fit.slope == 0.0
    assert fit.intercept == 5.0


def test_ols_hand_computed_slope():
    # xbar=1, ybar=2/3: sxy = (-1)(-2/3) + 0 + (1)(1/3) = 1, sxx = 2
    fit = ols_slope([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert abs(fit.slope - 0.5) < 1e-15


def test_ols_degenerate_designs():
    with pytest.raises(DegenerateDesign):
        ols_slope([1.0], [1.0])
    with pytest.raises(DegenerateDesign):
        ols_slope([2.0, 2.0, 2.0], [0.0, 1.0, 2.0])
    with pytest.raises(DegenerateDesign):
        ols_slope([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDesign):
        ols_slope([], [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ols_rejects_non_finite_design(bad):
    with pytest.raises(ValueError):
        ols_slope([0.0, 1.0, bad], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        ols_slope([0.0, 1.0, 2.0], [0.0, bad, 2.0])


def test_ols_fit_design_is_read_only_copy():
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([1.0, 0.0, 4.0])
    fit = ols_slope(xs, ys)
    for design in (fit.xs, fit.ys):
        assert not design.flags.writeable
        with pytest.raises(ValueError):
            design[0] = 5.0
    xs[0], ys[0] = 9.0, 9.0
    assert fit.xs[0] == 0.0 and fit.ys[0] == 1.0


def test_ols_affine_response_equivariance():
    rng = np.random.default_rng(7)
    for trial in range(20):
        xs = rng.standard_normal(40)
        ys = rng.standard_normal(40)
        a, b = rng.uniform(-5, 5, size=2)
        if abs(a) < 1e-3:
            a = 1.5
        base = ols_slope(xs, ys)
        scaled = ols_slope(xs, a * ys + b)
        assert abs(scaled.slope - a * base.slope) <= 1e-12 * max(1.0, abs(a * base.slope))
        want = a * base.intercept + b
        assert abs(scaled.intercept - want) <= 1e-12 * max(1.0, abs(want))


def test_ols_permutation_invariance():
    rng = np.random.default_rng(8)
    xs = rng.standard_normal(60)
    ys = rng.standard_normal(60)
    perm = rng.permutation(60)
    base = ols_slope(xs, ys)
    shuffled = ols_slope(xs[perm], ys[perm])
    assert abs(base.slope - shuffled.slope) <= 1e-12 * max(1.0, abs(base.slope))


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(9)
    xs = rng.standard_normal(500)
    ys = 2.0 * xs + rng.standard_normal(500)
    fit = ols_slope(xs, ys)
    dot = math.fsum((xs - xs.mean()) * fit.residuals())
    assert abs(dot) <= 1e-9 * math.fsum(np.abs(xs * ys))


def test_timeseries_rejects_bad_values():
    with pytest.raises(ValueError):
        TimeSeries([])
    with pytest.raises(ValueError):
        TimeSeries([1.0, float("nan")])
    with pytest.raises(ValueError):
        TimeSeries([1.0, float("inf")])
    with pytest.raises(ValueError):
        TimeSeries([[1.0, 2.0]])


def test_timeseries_is_immutable():
    x = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        x.values[0] = 9.0


def test_series_csv_round_trip(tmp_path):
    x = TimeSeries([0.5, -1.25, 3.0], provenance={"model": "fixture", "seed": 3})
    path = write_series_csv(x, tmp_path / "series.csv")
    back = read_series_csv(path)
    assert np.array_equal(back.values, x.values)
    assert back.provenance == {"model": "fixture", "seed": 3}


def test_series_csv_headerless(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1.0\n2.5\n-3.0\n")
    back = read_series_csv(path)
    assert np.array_equal(back.values, [1.0, 2.5, -3.0])
    assert back.provenance is None
