import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrdetect import (
    DegenerateBlockVariance,
    FgnParams,
    OutOfRangeTheta,
    OverflowValue,
    RegressionFit,
    TimeSeries,
    VariancePlotConfig,
    WindowExceedsSeries,
    admissible_delta_bound,
    block_mean_variances,
    classify_lrd_variance,
    replication_seed,
    simulate_fgn,
    variance_plot_slope,
)
from lrdetect.excursion import draw_levels, excursion_rows
from lrdetect.series import WindowGrid
from oracles import autocovariance_vector, exact_mean_variance, naive_block_variances


def fit_with_slope(slope):
    return RegressionFit(slope)


def _one_window_fit(xs, ys):
    """The kernel's fit of ys on xs over one window holding every point."""
    [(_, slopes)] = WindowGrid(xs, [(0, len(xs) - 1)]).slope_blocks([ys])
    return RegressionFit(float(slopes[0, 0]))


def test_block_variance_hand_example():
    curve = block_mean_variances(TimeSeries([1.0, 2.0, 3.0]), 2, 2)
    assert curve.tolist() == [0.25]  # block means 1.5, 2.5 around 2
    assert curve.dtype == np.float64 and not curve.flags.writeable


def test_block_variance_length_one_is_population_variance():
    curve = block_mean_variances(TimeSeries([1.0, 2.0, 3.0, 4.0]), 1, 1)
    assert curve[0] == 1.25


def test_block_variance_constant_series_is_zero():
    curve = block_mean_variances(TimeSeries([3.0] * 50), 1, 10)
    assert np.all(curve == 0.0)
    with pytest.raises(DegenerateBlockVariance, match=r"^zero block variance at block lengths \[1, 2, 3, 4, 5, 6, \.\.\.\] \(10 in all\)$"):
        variance_plot_slope(TimeSeries([3.0] * 50), VariancePlotConfig(n1=1, n2=10))


def test_block_variance_curve_keeps_overflow_for_the_fit_to_reject():
    loud = TimeSeries([(-1) ** k * 1e200 for k in range(64)])
    curve = block_mean_variances(loud, 1, 10)
    assert not np.isfinite(curve).all() and not curve.flags.writeable
    with pytest.raises(OverflowValue, match=r"^overflowing \(non-finite\) block variance at block lengths \[1, 3, 5, 7, 9\]$"):
        variance_plot_slope(loud, VariancePlotConfig(n1=1, n2=10))


def test_block_variance_window_validation():
    x = TimeSeries([1.0, 2.0, 3.0])
    with pytest.raises(WindowExceedsSeries):
        block_mean_variances(x, 1, 4)
    with pytest.raises(ValueError):
        block_mean_variances(x, 0, 2)


KERNEL_INPUTS = ("white", "fgn", "shares", "periodic")


def _kernel_input(kind, n, rng):
    if kind == "white":
        return rng.standard_normal(n)
    if kind == "periodic":
        # a period dividing l makes the block sums nearly equal: the one-pass form cancels
        period = int(rng.integers(2, 12))
        return np.sin(2.0 * np.pi * np.arange(n) / period) + 1e-3 * rng.standard_normal(n)
    fgn = simulate_fgn(FgnParams(hurst=0.9, n=n), int(rng.integers(2**32))).values
    return fgn if kind == "fgn" else excursion_rows(fgn[None, :], draw_levels(100, n))[0]


@pytest.mark.parametrize("kind", KERNEL_INPUTS)
def test_block_variances_match_naive_oracle_at_every_length(kind):
    rng = np.random.default_rng(KERNEL_INPUTS.index(kind))
    # about one periodic draw in eight cancels enough to fail an unguarded one-pass kernel
    for _ in range(40 if kind == "periodic" else 12):
        n = int(rng.integers(4, 301))
        x = TimeSeries(_kernel_input(kind, n, rng))
        fast = block_mean_variances(x, 1, n - 1)
        slow = naive_block_variances(x, 1, n - 1)
        assert np.array_equal(fast == 0.0, slow == 0.0), n
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=0, err_msg=f"n={n}")


def test_injected_power_law_recovers_slope():
    lengths = np.arange(1, 51)
    fit = _one_window_fit(np.log(lengths), np.log(3.7 * lengths ** -0.6))
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
        assert np.all(np.abs(shifted - base) <= 1e-9)


def test_scale_equivariance_and_affine_classification():
    rng = np.random.default_rng(22)
    x = rng.standard_normal(400)
    cfg = VariancePlotConfig(n1=1, n2=20)
    base_curve = block_mean_variances(TimeSeries(x), 1, 20)
    base_fit = variance_plot_slope(TimeSeries(x), cfg)
    for a, c in ((2.5, 0.0), (-3.0, 7.0), (0.02, -1.0)):
        curve = block_mean_variances(TimeSeries(a * x + c), 1, 20)
        assert np.allclose(curve, a * a * base_curve, rtol=1e-9, atol=0)
        fit = variance_plot_slope(TimeSeries(a * x + c), cfg)
        assert abs(fit.slope - base_fit.slope) < 1e-9
        assert classify_lrd_variance(fit) == classify_lrd_variance(base_fit)


def test_config_resolution_rules():
    cfg = VariancePlotConfig(delta=0.25, m=4.0)
    assert cfg.resolve(4096) == (8, 32)
    assert cfg.resolve(16384) == (11, 46)
    # clamping to n - 1, the longest block length with two blocks, warns instead of failing
    with pytest.warns(RuntimeWarning):
        low, high = VariancePlotConfig(delta=0.9, m=3.0).resolve(50)
    assert high == 49 and low >= 1
    with pytest.raises(WindowExceedsSeries):
        VariancePlotConfig(n1=1, n2=100).resolve(50)
    # m * n**delta overflows to inf here; the clamp comes before the ceiling
    with pytest.warns(RuntimeWarning, match="upper end inf clamped to 999"):
        assert VariancePlotConfig(delta=0.25, m=1e308).resolve(1000) == (5, 999)
    # a clamped window can shrink to one block length: the clamp warns, then the window fails
    with pytest.warns(RuntimeWarning, match="upper end 5 clamped to 2, one below series length 3"):
        with pytest.raises(WindowExceedsSeries, match=r"^resolved window \[2, 2\] has fewer than 2 block lengths$"):
            VariancePlotConfig(delta=0.9, m=1.5).resolve(3)


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
    with pytest.raises(ValueError, match="m must be finite"):
        VariancePlotConfig(delta=0.3, m=math.inf)
    with pytest.raises(ValueError, match="m must exceed 1"):
        VariancePlotConfig(delta=0.3, m=math.nan)


@pytest.mark.parametrize("hurst,tag", [(0.7, 0), (0.4, 1)])
def test_expected_block_variance_matches_oracle(hurst, tag):
    # mean of S_l^2 over replications vs the exact mean variance, allowing
    # 5 Monte Carlo standard errors plus an O(l/n) bias margin
    n, reps = 20_000, 200
    p = FgnParams(hurst=hurst, n=n)
    curves = np.empty((reps, 10))
    for r in range(reps):
        s = simulate_fgn(p, replication_seed(4242, "fgn", tag, r))
        curves[r] = block_mean_variances(s, 1, 10)
    mean_curve = curves.mean(axis=0)
    se = curves.std(axis=0, ddof=1) / math.sqrt(reps)
    gamma = autocovariance_vector(p, np.arange(10)).__getitem__
    for i, length in enumerate(range(1, 11)):
        want = exact_mean_variance(gamma, length)
        allowance = 5 * se[i] + 30.0 * (length / n) * want
        assert abs(mean_curve[i] - want) <= allowance, f"l={length}"


# Block variances of a noise row and of a sawtooth, whose length-7 block sums are
# all equal and so take the deviation-form redo, at n = 20,000: every dot
# product runs past the 10,000 elements above which OpenBLAS threads a ddot.
_BLOCK_VARIANCE_BYTES = """
import sys
import numpy as np
from lrdetect.varplot import block_variance_rows

n = 20_000
rows = np.vstack([np.random.default_rng(5).standard_normal(n), np.arange(n) % 7.0])
sys.stdout.write(block_variance_rows(rows, 1, 8).tobytes().hex())
"""


def test_block_variances_do_not_depend_on_blas_threads():
    import lrdetect

    src = str(Path(lrdetect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outputs = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _BLOCK_VARIANCE_BYTES],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
