"""The single-series estimators against the compensated-sum reference ``oracles.ols_slope``.

Both estimators fit through the window kernel, as the study does; these checks
tie them to a regression that shares none of its code.
"""

import warnings

import numpy as np
import pytest

from lrdetect import (
    GPH_LRD_THRESHOLD,
    VARIANCE_LRD_THRESHOLD,
    FgnParams,
    GphConfig,
    VariancePlotConfig,
    block_mean_variances,
    draw_levels,
    fit_series,
    full_ordinates,
    gph_estimate,
    gph_from_ordinates,
    resolve_quantiles,
    simulate_fgn,
    transform_series,
    variance_plot_slope,
)
from lrdetect.gph import gph_regressors
from oracles import ols_slope

LENGTHS = [50, 10_000, 200_000]


def _assert_matches(slope, reference, window):
    assert abs(slope - reference) <= 1e-10 * abs(reference), window
    assert f"{slope:.6f}" == f"{reference:.6f}", window


def _variance_reference(x, n1, n2):
    return ols_slope(np.log(np.arange(n1, n2 + 1)), np.log(block_mean_variances(x, n1, n2)))


def _gph_reference(ordinates, n, trim, bandwidth):
    indices = np.arange(trim, bandwidth + 1)
    return ols_slope(gph_regressors(indices, n), np.log(ordinates[indices]))


def _variance_configs(n):
    explicit = [(1, 2), (1, min(60, n - 1)), (7, 19), (n // 3, n // 3 + 4)]
    scaled = [(0.25, 4.0), (0.4, 2.0)]
    if n == 50:
        scaled.append((0.9, 3.0))  # clamped to n - 1, with a warning
    configs = [VariancePlotConfig(n1=a, n2=b) for a, b in explicit]
    return configs + [VariancePlotConfig(delta=d, m=m) for d, m in scaled]


def _gph_windows(n):
    # narrow windows near the top index n - 1, where the regressors barely differ
    top = [(w - width, w) for w in (n - 1, n - 2, n - 17) for width in (1, 2, 5, 20)]
    # the reference costs ~35 ms per 2e5-point window, so the widest is n // 2 there
    return top + [(1, n // 2 if n > 10_000 else n - 1), (3, int(n**0.5))]


@pytest.mark.parametrize("n", LENGTHS)
def test_estimators_match_the_reference(n):
    x = simulate_fgn(FgnParams(hurst=0.8, n=n), 41)
    for cfg in _variance_configs(n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            n1, n2 = cfg.resolve(n)
            slope = variance_plot_slope(x, cfg).slope
        _assert_matches(slope, _variance_reference(x, n1, n2), (n1, n2))
    ordinates = full_ordinates(x)
    for trim, bandwidth in _gph_windows(n):
        slope = gph_from_ordinates(ordinates, n, GphConfig(trim=trim, bandwidth=bandwidth)).slope
        _assert_matches(slope, _gph_reference(ordinates, n, trim, bandwidth), (trim, bandwidth))
    slope = gph_estimate(x, GphConfig(trim=2, bandwidth=n // 4)).slope
    _assert_matches(slope, _gph_reference(ordinates, n, 2, n // 4), "gph_estimate")


@pytest.mark.parametrize("n", LENGTHS)
def test_ie_pipeline_labels_match_the_reference(n):
    x = simulate_fgn(FgnParams(hurst=0.85, n=n), 42)
    levels = draw_levels(20, 7)
    shares = transform_series(x, resolve_quantiles(x, levels))
    ordinates = full_ordinates(shares)
    for n1, n2 in [(1, min(30, n - 1)), (4, 12)]:
        reference = _variance_reference(shares, n1, n2)
        want = "LRD" if reference > VARIANCE_LRD_THRESHOLD else "non-LRD"
        assert fit_series(x, VariancePlotConfig(n1=n1, n2=n2), levels)[2] == want, (n1, n2)
    for trim, bandwidth in [(1, int(n**0.5)), (n - 21, n - 1)]:
        reference = _gph_reference(ordinates, n, trim, bandwidth)
        want = "LRD" if reference > GPH_LRD_THRESHOLD else "non-LRD"
        assert fit_series(x, GphConfig(trim=trim, bandwidth=bandwidth), levels)[2] == want, (trim, bandwidth)
