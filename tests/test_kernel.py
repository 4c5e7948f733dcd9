"""The study's batched kernel: exact window slopes and row functions that match the per-series ones."""

import weakref

import numpy as np
import pytest
from scipy.special import ndtri

from lrdetect import (
    FgnParams,
    StudyConfig,
    block_mean_variances,
    default_gph_grid,
    default_variance_grid,
    replication_seed,
    run_study,
    simulate_fgn,
)
from lrdetect import series, study
from lrdetect.fgn import simulate_fgn_paths, uniform_draws
from lrdetect.gph import full_ordinates, gph_regressors, ordinate_rows
from lrdetect.series import RegressionFit, WindowGrid
from lrdetect.varplot import block_variance_rows

import oracles


def _slopes(grid, ys):
    """Slopes of every row (axis 0 of ``ys``) over every window of ``grid``, shape (rows, windows)."""
    ys = np.asarray(ys, dtype=np.float64)
    out = np.empty((ys.shape[0], grid.size))
    for cols, slopes in grid.slope_blocks(ys):
        out[:, cols] = slopes
    return out


def _one_window_fit(xs, ys):
    """The kernel's fit of ys on xs over one window holding every point, as
    ``_log_curve_slope`` fits an estimator's window."""
    [(_, slopes)] = WindowGrid(xs, [(0, len(xs) - 1)]).slope_blocks([ys])
    return RegressionFit(float(slopes[0, 0]))


def _max_relative_error(xs, ys, windows):
    """Largest relative distance of the kernel's slopes from the compensated-sum
    reference ``oracles.ols_slope`` over inclusive position windows."""
    slopes = _slopes(WindowGrid(xs, windows), ys[None, :])[0]
    worst = 0.0
    for (a, b), slope in zip(windows.tolist(), slopes):
        ref = oracles.ols_slope(xs[a : b + 1], ys[a : b + 1])
        worst = max(worst, abs(slope - ref) / abs(ref))
    return worst


def _gph_window_sets(n):
    """2-21-ordinate windows near the top index, the default grid, narrow low-frequency windows."""
    stride = min(97, n // 50)
    top = [(w - width, w) for w in range(n - 1, n - 1 - 10 * stride, -stride) for width in range(1, 21)]
    default = default_gph_grid(n)
    if n > 10_000:
        # oracles.ols_slope costs ~35 ms per 2e5-point window: keep the narrow windows,
        # where cancellation is worst, and every 20th of the wide ones.
        stride = (n - 1) // 50
        default = [
            (l, w) for i, (l, w) in enumerate(default) if w - l <= 4 * stride or i % 20 == 0
        ]
    low = [(l, l + width) for l in range(1, 60, 7) for width in range(1, 21)]
    return {"top": top, "default": default, "low": low}


def test_one_window_exact_line():
    fit = _one_window_fit([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
    assert fit.slope == -1.0


def test_one_window_constant_response():
    fit = _one_window_fit([0.0, 1.0], [5.0, 5.0])
    assert fit.slope == 0.0


def test_one_window_hand_computed_slope():
    # xbar=1, ybar=2/3: sxy = (-1)(-2/3) + 0 + (1)(1/3) = 1, sxx = 2
    fit = _one_window_fit([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert abs(fit.slope - 0.5) < 1e-15


def test_one_window_affine_response_equivariance():
    rng = np.random.default_rng(7)
    for trial in range(20):
        xs = rng.standard_normal(40)
        ys = rng.standard_normal(40)
        a, b = rng.uniform(-5, 5, size=2)
        if abs(a) < 1e-3:
            a = 1.5
        base = _one_window_fit(xs, ys)
        scaled = _one_window_fit(xs, a * ys + b)
        assert abs(scaled.slope - a * base.slope) <= 1e-12 * max(1.0, abs(a * base.slope))


def test_one_window_permutation_invariance():
    rng = np.random.default_rng(8)
    xs = rng.standard_normal(60)
    ys = rng.standard_normal(60)
    perm = rng.permutation(60)
    base = _one_window_fit(xs, ys)
    shuffled = _one_window_fit(xs[perm], ys[perm])
    assert abs(base.slope - shuffled.slope) <= 1e-12 * max(1.0, abs(base.slope))


@pytest.mark.parametrize("n", [500, 10_000, 200_000])
def test_window_slopes_match_ols_slope(n):
    ordinates = full_ordinates(simulate_fgn(FgnParams(hurst=0.7, n=n), 11))
    xs = gph_regressors(np.arange(1, n), n)
    ys = np.log(ordinates[1:])
    for name, pairs in _gph_window_sets(n).items():
        # frequency index j sits at position j - 1
        windows = np.asarray(pairs) - 1
        assert _max_relative_error(xs, ys, windows) <= 1e-10, name
    curve = block_mean_variances(simulate_fgn(FgnParams(hurst=0.7, n=n), 12), 1, 60)
    windows = np.asarray(default_variance_grid(n)) - 1
    err = _max_relative_error(np.log(np.arange(1, 61)), np.log(curve), windows)
    assert err <= 1e-10


def test_window_slopes_flag_nonfinite_rows():
    xs = np.log(np.arange(1.0, 11.0))
    ys = np.vstack([np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10)])
    ys[1, 6] = -np.inf
    slopes = _slopes(WindowGrid(xs, [(0, 4), (2, 8), (7, 9)]), ys)
    assert np.all(np.isfinite(slopes[0]))
    assert np.isfinite(slopes[1, 0]) and np.isnan(slopes[1, 1]) and np.isfinite(slopes[1, 2])
    assert slopes[1, 0] == slopes[0, 0]
    # one point per segment, and window (0, 2)'s middle weight a_1 - xbar_w is
    # exactly 0: membership, not the weight, makes a value part of a window
    grid = WindowGrid([0.0, 1.0, 2.0], [(0, 1), (1, 2), (0, 2)])
    [(_, _, weights, _)] = grid._blocks
    assert weights[1, 2] == 0.0
    [(_, slopes)] = grid.slope_blocks([[0.0, -np.inf, 2.0]])
    assert np.all(np.isnan(slopes))


def test_flags_follow_nonfinite_values_across_blocks(monkeypatch):
    # a few windows per weight block and 1 per slope block: NaN slopes must land in
    # the right columns, also where the moments of several-point segments count
    monkeypatch.setattr(series, "_CHUNK", 40)
    cuts = [0, 2, 5, 9, 11, 14, 18, 20]  # strided windows: segments of 2, 3 and 4 points
    for n, windows, spread in (
        (12, [(a, b) for a in range(12) for b in range(a + 1, 12)], False),
        (20, [(a, b - 1) for i, a in enumerate(cuts) for b in cuts[i + 1 :]], True),
    ):
        xs = np.log(np.arange(1.0, n + 1.0))
        ys = np.random.default_rng(5).standard_normal((30, n))
        ys[3, 5], ys[10, 11], ys[20, 0], ys[21, 6], ys[22, 10] = -np.inf, np.nan, np.inf, -np.inf, np.nan
        # only in the last segment, which no window of the first weight block covers
        ys[25, n - 1] = np.inf
        # in every segment: each window's first and last points
        ys[26, sorted({end for window in windows for end in window})] = -np.inf
        bad = np.array([[not np.isfinite(row[a : b + 1]).all() for a, b in windows] for row in ys])
        grid = WindowGrid(xs, windows)
        assert grid._spread == spread and len(grid._blocks) > 1
        assert max(b for _, b in windows[grid._blocks[0][0]]) < n - 1
        assert bad[26].all() and bad[25].any() and not bad[25].all()
        blocks = 0
        for cols, slopes in grid.slope_blocks(ys):
            blocks += 1
            assert np.array_equal(np.isnan(slopes), bad[:, cols])
            for r, w in zip(*np.nonzero(~bad[:, cols])):
                (a, b), slope = windows[cols.start + w], slopes[r, w]
                assert slope == pytest.approx(oracles.ols_slope(xs[a : b + 1], ys[r, a : b + 1]), rel=1e-10)
        assert blocks == len(windows)


def test_batched_rows_match_per_series_functions():
    params = FgnParams(hurst=0.65, n=300)
    seeds = [3, 99, 12345, 7]
    paths = simulate_fgn_paths(params, seeds)
    curves = block_variance_rows(paths, 2, 40)
    ordinates = ordinate_rows(paths)
    for i, seed in enumerate(seeds):
        series = simulate_fgn(params, seed)
        assert np.array_equal(paths[i], series.values)
        assert np.array_equal(curves[i], block_mean_variances(series, 2, 40))
        assert np.array_equal(ordinates[i], full_ordinates(series))
    single = simulate_fgn_paths(FgnParams(hurst=0.3, n=1), [5, 6])
    assert single.shape == (2, 1)
    assert single[1, 0] == simulate_fgn(FgnParams(hurst=0.3, n=1), 6).values[0]


def test_block_variance_rows_do_not_depend_on_batch_or_layout():
    rng = np.random.default_rng(31)
    for n in (7, 50, 301):
        x = rng.standard_normal((5, n))
        # near-periodic (takes the deviation-form fallback) and constant rows
        x[1] = np.sin(2.0 * np.pi * np.arange(n) / 5) + 1e-9 * rng.standard_normal(n)
        x[3] = 2.5
        alone = np.vstack([block_variance_rows(row[None, :], 1, n) for row in x])
        for layout in (x, np.asfortranarray(x), np.repeat(x, 2, axis=0)[::2]):
            assert np.array_equal(block_variance_rows(layout, 1, n), alone), n


@pytest.mark.parametrize("scenario", ["fgn", "subordinated-fgn"])
def test_chunk_size_does_not_change_reports(monkeypatch, scenario):
    # the default Hurst grid makes one cell of each truth class per length, a
    # grid whose truth class alternates one cell of each Hurst value
    alternating = {"fgn": (0.3, 0.6, 0.4, 0.7), "subordinated-fgn": (0.6, 0.8, 0.7, 0.9)}[scenario]
    configs = [
        StudyConfig(
            scenario=scenario,
            lengths=(60, 90),
            replications=5,
            master_seed=4,
            hurst_grid=hurst_grid,
            variance_cutoffs=((1, 4), (2, 9), (1, 20), (3, 60)),
            gph_cutoffs=((1, 12), (3, 40), (20, 59)),
            psi=30,
        )
        for hurst_grid in (None, alternating)
    ]
    references = [run_study(cfg) for cfg in configs]
    monkeypatch.setattr(study, "_CHUNK", 97)  # cells of one row each
    monkeypatch.setattr(series, "_CHUNK", 97)  # window grids split into many blocks
    assert [run_study(cfg) for cfg in configs] == references


def test_zero_variance_windows_and_constant_series_count_as_skips():
    # a window ending at n2 = n has one block, hence zero variance
    cfg = StudyConfig(
        scenario="fgn",
        lengths=(50,),
        replications=3,
        master_seed=8,
        variance_cutoffs=((1, 10), (30, 50)),
        gph_cutoffs=((1, 20),),
    )
    by_window = {(r.estimator, r.n1, r.n2): r for r in run_study(cfg)}
    series = 3 * 12
    assert by_window[("variance", 30, 50)].skips == series
    assert by_window[("variance", 1, 10)].skips == 0
    assert by_window[("gph", 1, 20)].skips == 0
    constant = np.ones((1, 50))
    with np.errstate(divide="ignore"):
        var_logs = np.log(block_variance_rows(constant, 1, 8))
        gph_logs = np.log(ordinate_rows(constant)[:, 1:])
    grid = WindowGrid(np.log(np.arange(1.0, 9.0)), [(0, 3), (1, 7)])
    assert np.all(np.isnan(_slopes(grid, var_logs)))
    assert np.all(np.isnan(_slopes(WindowGrid(gph_regressors(np.arange(1, 50), 50), [(0, 9)]), gph_logs)))


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 1])
def test_seed_hash_matches_seed_sequence(master):
    # masters of 2 and 3 words make 5- and 6-word path entropy, past the 4-word pool
    reps = np.array([0, 1, 2, 99, 655, 2**31, 2**32 - 1])
    hashes = study._seed_hash(master, 1, 7, reps)
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [oracles.seed_hash(master, 1, 7, r) for r in reps.tolist()]
    assert replication_seed(master, "subordinated-fgn", 7, 99) == oracles.seed_hash(master, 1, 7, 99)
    # the level seed's entropy, (master, 2), is shorter than the pool
    level_seed = StudyConfig("subordinated-fgn", (50,), 1, master).resolved_level_seed()
    assert level_seed == oracles.seed_hash(master, 2)


@pytest.mark.parametrize("seeds", [[0], [2**64 - 1], [0, 2**64 - 1, 5, 6, 2**63, 123456789, 5]])
@pytest.mark.parametrize("size", [1, 998])
def test_batched_draws_match_one_generator_per_seed(seeds, size):
    normals = ndtri(uniform_draws(seeds, size))
    assert normals.shape == (len(seeds), size)
    for row, seed in zip(normals, seeds):
        assert np.array_equal(row, ndtri(uniform_draws([seed], size)[0]))
        assert np.array_equal(row, ndtri(oracles.philox_uniforms(seed, size)))
    single = simulate_fgn_paths(FgnParams(hurst=0.3, n=1, sigma2=2.5), seeds)[:, 0]
    assert np.array_equal(single, np.sqrt(2.5) * normals[:, 0])


def test_length_kernels_are_built_once_per_length_and_freed(monkeypatch):
    built = []  # (regressor count, weak reference), one per WindowGrid built

    class CountingGrid(WindowGrid):
        def __init__(self, xs, windows):
            # a length builds its variance grid, then its GPH grid; every grid
            # of the lengths before is gone by the time the next length starts
            assert all(ref() is None for _, ref in built[: len(built) - len(built) % 2])
            super().__init__(xs, windows)
            built.append((len(xs), weakref.ref(self)))

    monkeypatch.setattr(study, "WindowGrid", CountingGrid)
    monkeypatch.setattr(study, "_CHUNK", 400)  # several cells per (length, Hurst value)
    cfg = StudyConfig("fgn", (50, 90, 60), 5, 3, hurst_grid=(0.3, 0.6, 0.8))
    run_study(cfg)
    # block lengths 1..min(60, n) for the variance grid, frequency indices 1..n-1 for GPH
    assert [size for size, _ in built] == [50, 49, 60, 89, 60, 59]
    assert all(ref() is None for _, ref in built)

