"""Peak memory of the long-series path, in units of one float64 array of the series.

numpy reports its buffers to tracemalloc, so a peak measured there counts
every array a call holds at once.
"""

import tracemalloc

import numpy as np

from lrdetect import (
    FgnParams,
    StudyConfig,
    TimeSeries,
    default_gph_grid,
    read_series_csv,
    run_study,
    write_series_csv,
)
from lrdetect.fgn import _embedding_amplitudes, simulate_fgn_paths, uniform_draws
from lrdetect.gph import gph_regressors
from lrdetect.series import WindowGrid
from lrdetect.varplot import block_variance_rows

N = 1 << 18


def _peak_arrays(call, *args) -> float:
    """Peak bytes ``call(*args)`` allocates beyond what was live before it, over 8N."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - live) / (8 * N)


def test_embedding_holds_few_arrays():
    # gamma's twelve-term series runs on six buffers: 6.1 measured
    assert _peak_arrays(_embedding_amplitudes.__wrapped__, FgnParams(hurst=0.8, n=N)) <= 6.5


def test_embedding_caches_one_amplitude_per_lag():
    assert _embedding_amplitudes(FgnParams(hurst=0.8, n=N)).nbytes == 8 * N


def test_simulation_holds_few_arrays():
    params = FgnParams(hurst=0.8, n=N)
    _embedding_amplitudes(params)  # cached, as after a process's first path
    # the draws and the half spectrum, then the spectrum and the transform: 4.0 measured
    assert _peak_arrays(simulate_fgn_paths, params, [3]) <= 4.25


def test_uniform_draws_hold_one_block_of_raw_words():
    # the result and one block of raw words: 1.28 measured (a whole row of words: 2.0)
    assert _peak_arrays(uniform_draws, [3], N) <= 1.5


def test_block_variances_hold_two_arrays():
    # the prefix sums and one reused block buffer: 2.00 measured (the two-pass form: 4.0)
    x = np.random.default_rng(4).standard_normal((1, N))
    assert _peak_arrays(block_variance_rows, x, 1, 60) <= 2.25


def test_series_csv_writer_holds_few_arrays(tmp_path):
    series = TimeSeries(np.random.default_rng(1).standard_normal(N))
    assert _peak_arrays(write_series_csv, series, tmp_path / "series.csv") <= 4


def test_series_csv_reader_holds_few_arrays(tmp_path):
    path = write_series_csv(TimeSeries(np.random.default_rng(2).standard_normal(N)), tmp_path / "series.csv")
    # two copies of the file at most, bytes and text or text and its newline pass: 6.03 measured
    # (bytes, text and translated text at once: 7.74)
    assert _peak_arrays(read_series_csv, path) <= 6.5


def test_study_reports_retain_few_bytes_per_window():
    # seven int64 count columns per window: 60 bytes measured (a MetricsReport per window: 167)
    cfg = StudyConfig("fgn", (50, 100, 200, 500), 1, 0)
    run_study(cfg)  # fills the embedding cache, as after a process's first study
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        reports = run_study(cfg)
        retained = tracemalloc.get_traced_memory()[0] - live
    finally:
        tracemalloc.stop()
    assert retained / len(reports) <= 72


def _grid_bytes_per_cell(n: int) -> float:
    """Bytes a WindowGrid of the default GPH grid at length n retains per (segment, window) cell."""
    xs, windows = gph_regressors(np.arange(1, n), n), np.asarray(default_gph_grid(n)) - 1
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        grid = WindowGrid(xs, windows)
        retained = tracemalloc.get_traced_memory()[0] - live
    finally:
        tracemalloc.stop()
    return retained / sum(inside.size for _, _, _, inside in grid._blocks)


def test_window_grid_retains_few_bytes_per_block_cell():
    # float64 weights and a bool membership per (segment, window) cell: 9.02
    # bytes measured (a float64 membership would make 16)
    assert _grid_bytes_per_cell(100) <= 10


def test_window_grid_with_several_point_segments_retains_few_bytes_per_block_cell():
    # each segment of several points adds a float64 membership row over Sxx, which
    # weighs its moments; about half the segments hold one point: 13.08 bytes
    # measured (a membership row for every segment: 17.06)
    assert _grid_bytes_per_cell(500) <= 13.5
