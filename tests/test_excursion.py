import numpy as np
import pytest

from lrdetect import (
    FgnParams,
    GphConfig,
    QuantileMeasure,
    SubordinationParams,
    TimeSeries,
    VariancePlotConfig,
    draw_levels,
    fit_series,
    replication_seed,
    resolve_quantiles,
    simulate_fgn,
    subordinate,
    transform_series,
)
from lrdetect.excursion import MAX_PSI, excursion_rows
from oracles import excursion_counts


def test_resolve_quantiles_order_statistic():
    x = TimeSeries([5.0, 1.0, 3.0])
    m = resolve_quantiles(x, QuantileMeasure([0.5]))
    assert m[0] == 3.0  # ceil(0.5 * 3) = 2nd order statistic


def test_resolve_quantiles_top_level_hits_maximum():
    x = TimeSeries([2.0, 9.0, 4.0, 7.0])
    m = resolve_quantiles(x, QuantileMeasure([0.999]))
    assert m[0] == 9.0


def test_resolve_quantiles_constant_series():
    x = TimeSeries([4.2] * 7)
    m = resolve_quantiles(x, QuantileMeasure([0.1, 0.5, 0.9]))
    assert np.all(m == 4.2)


def test_transform_single_threshold():
    out = transform_series(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]), [2.5])
    assert out.values.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]


def test_transform_thresholds_above_maximum_give_zero():
    out = transform_series(TimeSeries([1.0, 2.0]), [5.0, 9.0])
    assert np.all(out.values == 0.0)


def test_transform_weighted_count():
    out = transform_series(TimeSeries([1.0, 3.0]), [0.5, 2.0])
    assert out.values.tolist() == [0.5, 1.0]


def test_transform_ties_do_not_count():
    out = transform_series(TimeSeries([2.0, 2.5]), [2.0])
    assert out.values.tolist() == [0.0, 1.0]


def test_transform_bounded_and_monotone():
    rng = np.random.default_rng(41)
    x = TimeSeries(rng.standard_normal(500))
    measure = resolve_quantiles(x, QuantileMeasure(rng.uniform(0.01, 0.99, size=40)))
    out = transform_series(x, measure)
    assert out.n == x.n
    assert np.all(out.values >= 0.0)
    assert np.all(out.values <= 1.0 + 1e-12)
    order = np.argsort(x.values)
    assert np.all(np.diff(out.values[order]) >= 0.0)


@pytest.mark.parametrize("n", [4, 50, 500])
@pytest.mark.parametrize("psi", [1, 7, 100, 5000])
def test_excursion_rows_match_single_series_and_oracle(psi, n):
    rng = np.random.default_rng(1000 * psi + n)
    rows = rng.standard_normal((5, n))
    rows[1] = 2.5  # constant
    rows[2] = rng.integers(0, 3, size=n)  # few values, each repeated
    rows[3] = np.round(rows[3], 1)  # ties among the thresholds and the values
    rows[4] = np.exp(rows[4])
    levels = draw_levels(psi, n)
    out = excursion_rows(rows, levels)
    for row, got in zip(rows, out):
        series = TimeSeries(row)
        thresholds = resolve_quantiles(series, levels)
        assert got.tobytes() == transform_series(series, thresholds).values.tobytes()
        assert got.tobytes() == transform_series(series, thresholds[::-1]).values.tobytes()
        assert np.array_equal(np.rint(got * psi), excursion_counts(row, levels.levels))


def test_transform_rejects_empty_thresholds():
    with pytest.raises(ValueError, match="thresholds"):
        transform_series(TimeSeries([1.0, 2.0]), [])


def test_pipeline_invariant_under_increasing_maps():
    rng = np.random.default_rng(42)
    x = TimeSeries(rng.standard_normal(800))
    levels = QuantileMeasure(rng.uniform(0.01, 0.99, size=50))
    for mapped in (np.exp(x.values), 3.0 * x.values + 2.0, np.arctan(x.values)):
        a = transform_series(x, resolve_quantiles(x, levels)).values
        y = TimeSeries(mapped)
        b = transform_series(y, resolve_quantiles(y, levels)).values
        assert np.array_equal(a, b)
    for estimator in (VariancePlotConfig(n1=1, n2=14), GphConfig(trim=1, bandwidth=28)):
        exp_x = TimeSeries(np.exp(x.values))
        assert fit_series(x, estimator, levels)[2] == fit_series(exp_x, estimator, levels)[2]


def test_alpha_does_not_change_transformed_series():
    y = simulate_fgn(FgnParams(hurst=0.8, n=400), 77)
    levels = draw_levels(60, 4000)
    outs = []
    for alpha in (0.5, 1.0, 2.0):
        z = subordinate(y, SubordinationParams(alpha))
        outs.append(transform_series(z, resolve_quantiles(z, levels)).values)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_pipeline_detects_memory_of_subordinated_fgn():
    # H = 0.85 is LRD in the excursion sense (threshold 3/4)
    cfg = VariancePlotConfig(n1=1, n2=14)
    levels = draw_levels(100, 777)
    hits = 0
    reps = 200
    for r in range(reps):
        y = simulate_fgn(
            FgnParams(hurst=0.85, n=10_000), replication_seed(616, "subordinated-fgn", 0, r)
        )
        z = subordinate(y, SubordinationParams(1.0))
        hits += fit_series(z, cfg, levels)[2] == "LRD"
    assert hits / reps > 0.8


def test_pipeline_false_positive_rate_below_threshold():
    # H = 0.6 is non-LRD; at the benchmark length n=200 the LRD frequency
    # stays below 0.6 (at much larger n the fixed window (1, 14) saturates:
    # the transformed process has positive summable covariances, so the
    # population slope over any fixed window exceeds -1)
    cfg = VariancePlotConfig(n1=1, n2=14)
    levels = draw_levels(100, 777)
    hits = 0
    reps = 200
    for r in range(reps):
        y = simulate_fgn(
            FgnParams(hurst=0.6, n=200), replication_seed(616, "subordinated-fgn", 1, r)
        )
        z = subordinate(y, SubordinationParams(1.0))
        hits += fit_series(z, cfg, levels)[2] == "LRD"
    assert hits / reps < 0.6


def test_measure_validation():
    with pytest.raises(ValueError):
        QuantileMeasure([])
    with pytest.raises(ValueError):
        QuantileMeasure([0.0, 0.5])
    with pytest.raises(ValueError):
        QuantileMeasure([0.5, 1.0])


def test_draw_levels_rejects_psi_above_ceiling():
    # checked before any level is drawn, so nothing is allocated
    with pytest.raises(ValueError, match="psi"):
        draw_levels(MAX_PSI + 1, 5)


def test_draw_levels_fixed_panel():
    a = draw_levels(100, 5)
    b = draw_levels(100, 5)
    assert np.array_equal(a.levels, b.levels)
    assert np.all((a.levels > 0.0) & (a.levels < 1.0))
    assert a.levels.size == 100
