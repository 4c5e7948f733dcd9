import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrdetect import (
    ConfigError,
    DegenerateBlockVariance,
    GphConfig,
    MetricsReport,
    StudyConfig,
    StudyReports,
    TimeSeries,
    VariancePlotConfig,
    ZeroPeriodogramOrdinate,
    default_gph_grid,
    default_hurst_grid,
    default_variance_grid,
    draw_levels,
    gph_estimate,
    gph_from_ordinates,
    ground_truth_label,
    rank_cutoffs,
    read_report_csv,
    replication_seed,
    run_study,
    variance_plot_slope,
    write_study_outputs,
)
from lrdetect import study
from lrdetect.cli import main
from lrdetect.excursion import MAX_PSI
from lrdetect.fgn import MAX_LENGTH
from lrdetect.gph import full_ordinates, gph_regressors, ordinate_rows
from lrdetect.study import MAX_REPLICATIONS, MAX_WORKERS, WindowGrid, pool_size
from lrdetect.varplot import block_mean_variances, block_variance_rows

import oracles


def _labels(grid, logs, threshold):
    """Study labels of one series per window of ``grid``: 1 = LRD, 0 = non-LRD, 2 = skip."""
    labels = np.empty(grid.size, dtype=np.int64)
    for cols, slopes in grid.slope_blocks(logs[None, :]):
        labels[cols] = np.where(np.isnan(slopes[0]), 2, np.where(slopes[0] > threshold, 1, 0))
    return labels


def _variance_labels(series, grid):
    """Study labels per variance window through WindowGrid."""
    lmin, lmax = int(grid[:, 0].min()), int(grid[:, 1].max())
    with np.errstate(divide="ignore"):
        logs = np.log(block_mean_variances(series, lmin, lmax))
    return _labels(WindowGrid(np.log(np.arange(lmin, lmax + 1)), grid - lmin), logs, -1.0)


def _gph_labels(series, grid, ordinates):
    """Study labels per frequency window through WindowGrid."""
    with np.errstate(divide="ignore"):
        logs = np.log(ordinates[1:])
    xs = gph_regressors(np.arange(1, series.n), series.n)
    return _labels(WindowGrid(xs, grid - 1), logs, 0.0)


def small_cfg(**overrides):
    base = dict(
        scenario="fgn",
        lengths=(80,),
        replications=8,
        master_seed=12,
        variance_cutoffs=((1, 4), (2, 9), (1, 20)),
        gph_cutoffs=((1, 12), (3, 40)),
        workers=1,
    )
    base.update(overrides)
    return StudyConfig(**base)


def test_ground_truth_labels():
    assert ground_truth_label("fgn", 0.7) == "LRD"
    assert ground_truth_label("fgn", 0.5) == "non-LRD"
    assert ground_truth_label("subordinated-fgn", 0.75) == "LRD"
    assert ground_truth_label("subordinated-fgn", 0.6) == "non-LRD"
    with pytest.raises(ConfigError):
        ground_truth_label("arma", 0.5)


def test_default_hurst_grids():
    fgn = default_hurst_grid("fgn")
    sub = default_hurst_grid("subordinated-fgn")
    for grid, lo, hi, threshold in ((fgn, 0.3, 0.7, 0.5), (sub, 0.6, 0.9, 0.75)):
        assert len(grid) == 12
        assert grid[0] == lo and grid[-1] == hi
        steps = np.diff(grid)
        assert np.allclose(steps, (hi - lo) / 11)
        assert threshold not in grid
        assert sum(ground_truth_label("fgn", h) == "LRD" for h in fgn) == 6


def test_default_cutoff_grids_are_valid():
    for n in (50, 200):
        var = default_variance_grid(n)
        assert all(1 <= a < b <= min(60, n) for a, b in var)
        gph = default_gph_grid(n)
        assert all(1 <= a < b <= n - 1 for a, b in gph)
        assert len(set(gph)) == len(gph)


def test_replication_seed_is_stable_and_distinct():
    a = replication_seed(5, "fgn", 2, 3)
    assert a == replication_seed(5, "fgn", 2, 3)
    others = {
        replication_seed(5, "fgn", 2, 4),
        replication_seed(5, "fgn", 3, 3),
        replication_seed(6, "fgn", 2, 3),
        replication_seed(5, "subordinated-fgn", 2, 3),
    }
    assert a not in others and len(others) == 4


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(scenario="unknown")
    with pytest.raises(ConfigError):
        small_cfg(replications=0)
    with pytest.raises(ConfigError):
        small_cfg(variance_cutoffs=((1, 100),))
    with pytest.raises(ConfigError):
        small_cfg(gph_cutoffs=((1, 80),))
    with pytest.raises(ConfigError):
        small_cfg(hurst_grid=(0.2, 1.0))
    with pytest.raises(ConfigError):
        small_cfg(workers=0)
    with pytest.raises(ConfigError):
        small_cfg(variance_cutoffs=())
    small_cfg()


def test_run_study_counts_are_conserved():
    cfg = small_cfg()
    reports = run_study(cfg)
    expected = len(cfg.variance_cutoffs) + len(cfg.gph_cutoffs)
    assert len(reports) == expected
    total = cfg.replications * 12
    for r in reports:
        assert r.tp + r.fp + r.tn + r.fn + r.skips == total


@pytest.mark.parametrize("scenario", ["fgn", "subordinated-fgn"])
def test_run_study_deterministic_across_runs_and_workers(tmp_path, scenario):
    # the subordinated scenario also sends its level panel to the pool's workers
    cfg = small_cfg(scenario=scenario)
    first = write_study_outputs(cfg, run_study(cfg), tmp_path / "a")
    second = write_study_outputs(cfg, run_study(cfg), tmp_path / "b")
    parallel_cfg = small_cfg(scenario=scenario, workers=2)
    third = write_study_outputs(parallel_cfg, run_study(parallel_cfg), tmp_path / "c")
    reference = first[0].read_bytes()
    assert second[0].read_bytes() == reference
    assert third[0].read_bytes() == reference


@pytest.mark.parametrize("scenario", ["fgn", "subordinated-fgn"])
def test_cells_hold_each_replication_once_in_one_truth_class(monkeypatch, scenario):
    # classes N, L, N, L, L, L, N for fgn and N, N, N, N, L, L, N for the subordinated
    # process; cells of 10 rows at n = 50 and of 5 at n = 90 cut through Hurst values
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(study, "_CHUNK", 1000)
    hurst_grid = (0.3, 0.6, 0.4, 0.7, 0.8, 0.9, 0.2)
    cfg = StudyConfig(scenario, (50, 90), 23, 5, hurst_grid=hurst_grid)
    grids = {n: cfg.grids_for(n) for n in cfg.lengths}
    plans = {n: list(study._cells(cfg, n, 0, 1)) for n in cfg.lengths}
    for n, cells in plans.items():
        pairs = [(h, r) for cell in cells for h, first, stop in cell for r in range(first, stop)]
        assert sorted(pairs) == [(h, r) for h in range(len(hurst_grid)) for r in range(23)]
        assert all(first < stop for cell in cells for _, first, stop in cell)
        for cell in cells:
            assert len({ground_truth_label(scenario, hurst_grid[h]) for h, _, _ in cell}) == 1
            assert sum(stop - first for _, first, stop in cell) <= 1000 // (2 * n)
        assert any(len(cell) > 1 for cell in cells)  # some cell spans Hurst values
    for workers in (1, 2, 3):
        dealt = dataclasses.replace(cfg, workers=workers)
        size, tasks = study._study_tasks(dealt, grids)
        assert size == workers
        for n, cells in plans.items():
            assert list(study._cells(dealt, n, 0, 1)) == cells
            split = [list(study._cells(dealt, n, *task[3:])) for task in tasks if task[0] == n]
            assert len(split) == size
            assert sorted((cell for part in split for cell in part), key=cells.index) == cells
    # the plan is counted, not listed: 12 million one-row cells at the largest config
    largest = StudyConfig(scenario, (MAX_LENGTH,), MAX_REPLICATIONS, 0, workers=4)
    size, tasks = study._study_tasks(largest, {MAX_LENGTH: grids[50]})
    assert size == 4 and [task[3:] for task in tasks] == [(part, 4) for part in range(4)]
    assert next(study._cells(largest, MAX_LENGTH, 3, 4)) == ((0, 3, 4),)


def test_subordinated_metrics_invariant_in_alpha(tmp_path):
    outputs = {}
    for alpha in (1.0, 0.5):
        cfg = StudyConfig(
            scenario="subordinated-fgn",
            lengths=(100,),
            replications=6,
            master_seed=77,
            variance_cutoffs=((1, 10),),
            gph_cutoffs=((1, 20),),
            psi=40,
            alpha=alpha,
            workers=1,
        )
        paths = write_study_outputs(cfg, run_study(cfg), tmp_path / f"alpha{alpha}")
        outputs[alpha] = paths[0].read_bytes()
    assert outputs[1.0] == outputs[0.5]


def test_subordinated_study_csvs_match_recorded_digest(tmp_path):
    # seed 0, default grids; the CSVs' digests were recorded when the study still
    # transformed one TimeSeries at a time, so the batched transform must keep every
    # byte; the manifest's when it became the config as run
    cfg = StudyConfig(scenario="subordinated-fgn", lengths=(50, 100, 200, 500), replications=10, master_seed=0)
    paths = write_study_outputs(cfg, run_study(cfg), tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == {
        "results_subordinated-fgn_n50.csv": "f2b2ea7fd5c7c27481755210b53763ca99ceec2e0843332bcc99ee1028385d0f",
        "results_subordinated-fgn_n100.csv": "93539318ca1bc276a95a1fe3f26805d1ac5058709b1a29f3ac779462ee552a62",
        "results_subordinated-fgn_n200.csv": "058f8aab919e1733a9e1701de62197aa11139fd8ccc73d366b440bc69b841782",
        "results_subordinated-fgn_n500.csv": "a5d8f088b5c3d1f35f08d5754bd0e974c7b214c7b4f2acac3a2ef11630296cd1",
        "manifest_subordinated-fgn.json": "51c960dad330be290284c72389fc79be50901232709c2931c2333f91eb6af23d",
    }


def test_subordinated_study_does_not_overflow_on_small_alpha():
    # exp(y^2 / 0.02) overflows for |y| > 3.8; the study never forms it
    reports = {}
    for alpha in (1.0, 0.01):
        cfg = StudyConfig(
            "subordinated-fgn",
            (500,),
            20,
            0,
            alpha=alpha,
            variance_cutoffs=((1, 10),),
            gph_cutoffs=((1, 20),),
        )
        reports[alpha] = run_study(cfg)
    assert reports[0.01] == reports[1.0]


def test_worker_count_has_a_ceiling():
    small_cfg(workers=MAX_WORKERS)
    with pytest.raises(ConfigError, match="workers"):
        small_cfg(workers=MAX_WORKERS + 1)


def test_import_does_not_load_multiprocessing():
    import lrdetect

    src = str(Path(lrdetect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    check = "import sys, lrdetect; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_replications_have_a_ceiling():
    small_cfg(replications=MAX_REPLICATIONS)
    with pytest.raises(ConfigError, match="replications"):
        small_cfg(replications=MAX_REPLICATIONS + 1)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
def test_alpha_must_be_positive_and_finite(alpha):
    # the rule is SubordinationParams', raised as a ConfigError naming alpha
    with pytest.raises(ConfigError, match=rf"^alpha must be positive and finite, got {alpha}$"):
        small_cfg(alpha=alpha)


def test_psi_has_a_ceiling():
    small_cfg(psi=MAX_PSI)
    with pytest.raises(ConfigError, match="psi"):
        small_cfg(psi=MAX_PSI + 1)


def test_length_has_a_ceiling_checked_before_any_compute(monkeypatch):
    small_cfg(lengths=(80, MAX_LENGTH))

    def no_compute(*args):
        raise AssertionError("a series was simulated")

    monkeypatch.setattr(study, "simulate_fgn_paths", no_compute)
    # the shorter length comes first, yet nothing runs before the long one is refused
    with pytest.raises(ConfigError, match=rf"lengths .*\[4, {MAX_LENGTH}\]"):
        run_study(small_cfg(lengths=(50, 10**13), variance_cutoffs=None, gph_cutoffs=None))


# Runs a 2-worker study in a pool of the start method given as argv[1]; spawn
# and forkserver re-import this script in every worker, hence the guard.
_START_METHOD_SCRIPT = """
import dataclasses, multiprocessing, os, sys

from lrdetect import StudyConfig, run_study

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    os.cpu_count = lambda: 2  # the pool starts even on one CPU
    cfg = StudyConfig("fgn", (50, 130), 3, 4, workers=2)
    print(multiprocessing.get_start_method(), run_study(cfg) == run_study(dataclasses.replace(cfg, workers=1)))
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pool_matches_one_worker_under_start_method(tmp_path, method):
    # what crosses to a worker must pickle by reference: a spawned worker shares no memory
    import lrdetect

    script = tmp_path / "pool_study.py"
    script.write_text(_START_METHOD_SCRIPT)
    src = str(Path(lrdetect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(script), method], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [method, "True"]


def test_pool_size_is_bounded_by_cpus_and_cells(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert pool_size(1, 100) == 1
    assert pool_size(2, 100) == 2
    assert pool_size(64, 100) == 4
    assert pool_size(64, 3) == 3
    assert pool_size(8, 0) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert pool_size(8, 100) == 1


def test_accuracy_improves_with_length():
    # pooled accuracy at the best variance cutoff: n=500 beats n=50 with 2pp slack
    cfg = StudyConfig(
        scenario="fgn",
        lengths=(50, 500),
        replications=50,
        master_seed=9,
        variance_cutoffs=tuple((1, b) for b in range(2, 13)),
        gph_cutoffs=((1, 30),),
        workers=2,
    )
    reports = run_study(cfg)
    best = {}
    for n in (50, 500):
        rows = [r for r in reports if r.series_length == n and r.estimator == "variance"]
        best[n] = max(r.accuracy for r in rows)
    assert best[500] >= best[50] - 0.02, best


def test_study_grid_labels_match_direct_estimators():
    rng = np.random.default_rng(61)
    series = TimeSeries(rng.standard_normal(150))
    var_grid = np.array([(1, 4), (2, 9), (5, 30)])
    labels = _variance_labels(series, var_grid)
    for (a, b), label in zip(var_grid, labels):
        fit = variance_plot_slope(series, VariancePlotConfig(n1=int(a), n2=int(b)))
        assert label == (1 if fit.slope > -1.0 else 0)
    gph_grid = np.array([(1, 12), (4, 70), (1, 149)])
    labels = _gph_labels(series, gph_grid, full_ordinates(series))
    for (l, w), label in zip(gph_grid, labels):
        fit = gph_estimate(series, GphConfig(trim=int(l), bandwidth=int(w)))
        assert label == (1 if fit.slope > 0.0 else 0)


def test_constant_series_counts_as_skip():
    constant = TimeSeries(np.ones(50))
    assert np.all(_variance_labels(constant, np.array([(1, 4), (2, 8)])) == 2)
    assert np.all(_gph_labels(constant, np.array([(1, 10)]), full_ordinates(constant)) == 2)


def _raises(error, fit, *args) -> int:
    try:
        fit(*args)
    except error:
        return 1
    return 0


@pytest.mark.parametrize("n", [4, 31, 101])
def test_study_skips_exactly_where_the_fit_raises(n):
    k = np.arange(n)
    inputs = {
        "constant": np.full(n, 0.3),
        "constant-stretch": np.where(k < n // 2, 1.0, np.random.default_rng(n).standard_normal(n)),
        "two-level": (k % 3 == 0).astype(np.float64),
    }
    # the two default grids, built as study._count_cells builds them
    var_grid, gph_grid = np.array(default_variance_grid(n)), np.array(default_gph_grid(n))
    lmin, lmax = int(var_grid[:, 0].min()), int(var_grid[:, 1].max())
    variance = WindowGrid(np.log(np.arange(lmin, lmax + 1, dtype=np.float64)), var_grid - lmin)
    gph = WindowGrid(gph_regressors(np.arange(1, n), n), gph_grid - 1)
    seen = set()
    for name, values in inputs.items():
        series = TimeSeries(values)
        with np.errstate(divide="ignore"):
            var_logs = np.log(block_variance_rows(values[None, :], lmin, lmax))
            gph_logs = np.log(ordinate_rows(values[None, :])[:, 1:])
        var_skips = study._tally(variance, var_logs, -1.0)[2].tolist()
        gph_skips = study._tally(gph, gph_logs, 0.0)[2].tolist()
        ordinates = full_ordinates(series)
        for (n1, n2), skip in zip(var_grid.tolist(), var_skips):
            cfg = VariancePlotConfig(n1=n1, n2=n2)
            assert skip == _raises(DegenerateBlockVariance, variance_plot_slope, series, cfg), (name, n1, n2)
        for (trim, bandwidth), skip in zip(gph_grid.tolist(), gph_skips):
            cfg = GphConfig(trim=trim, bandwidth=bandwidth)
            assert skip == _raises(ZeroPeriodogramOrdinate, gph_from_ordinates, ordinates, n, cfg), (name, trim, bandwidth)
        seen.update(var_skips + gph_skips)
    assert seen == {0, 1}  # some windows skip and some fit


def _block(estimator, n, *rows):
    """A report block of ``StudyReports``: rows (n1, n2, tp, fp, tn, fn, skips) as count columns."""
    return estimator, n, np.array(rows, dtype=np.int64).reshape(-1, 7).T


def test_rank_cutoffs_orders_and_saturates():
    table = StudyReports(
        [
            _block("variance", 200, (1, 4, 90, 10, 90, 10, 0), (1, 9, 95, 10, 90, 5, 0), (2, 5, 95, 10, 90, 5, 0)),
            _block("gph", 200, (1, 30, 50, 50, 50, 50, 0)),
        ]
    )
    rows = list(table)
    top = rank_cutoffs(table, 10)
    assert len(top) == 4  # k larger than available rows returns everything
    assert [r.accuracy for r in top] == sorted((r.accuracy for r in rows), reverse=True)
    # equal accuracy and sensitivity: narrower window wins
    assert (top[0].n1, top[0].n2) == (2, 5)
    assert (top[1].n1, top[1].n2) == (1, 9)
    assert rank_cutoffs(table, 2) == top[:2]
    with pytest.raises(ValueError):
        rank_cutoffs(StudyReports([]), 5)


def _nan_aware(reports):
    """Each report's fields, with nan spelled "nan": a record holding nan is not equal to itself."""
    return [tuple("nan" if value != value else value for value in dataclasses.astuple(r)) for r in reports]


def test_rank_cutoffs_matches_the_reference_key_on_a_tie_heavy_table():
    # a few count rows, several of them at 75% accuracy and sensitivity, one with nan accuracy and
    # sensitivity and one with nan sensitivity; both estimators at two lengths over windows of equal
    # width, and (variance, 50) and (gph, 80) in two blocks each, so that rows tie on every key
    counts = [(6, 2, 6, 2), (3, 1, 3, 1), (0, 0, 0, 0), (0, 3, 13, 0), (12, 4, 12, 4), (0, 0, 5, 5)]
    windows = [(1, 5), (2, 6), (3, 7), (1, 3), (2, 4), (4, 6)]
    keys = [("variance", 50), ("gph", 50), ("variance", 80), ("gph", 80), ("variance", 50), ("gph", 80)]
    blocks, skips = [], iter(range(len(keys) * len(windows)))  # distinct skips tell tied rows apart
    for b, (estimator, n) in enumerate(keys):
        rows = [(*window, *counts[(b + j) % len(counts)], next(skips)) for j, window in enumerate(windows)]
        blocks.append(_block(estimator, n, *rows))
    table = StudyReports(blocks)
    rows = list(table)
    tied = [oracles.rank_key(r) for r in rows]
    assert len(set(tied)) < len(tied) and any(math.isnan(r.accuracy) for r in rows)
    want = sorted(rows, key=oracles.rank_key)
    for k in range(1, len(table) + 1):
        assert _nan_aware(rank_cutoffs(table, k)) == _nan_aware(want[:k]), k


def test_column_view_of_an_empty_and_a_read_table(tmp_path):
    empty = StudyReports([]).columns()
    assert len(empty) == len(dataclasses.fields(MetricsReport)) and all(c.shape == (0,) for c in empty)
    assert list(StudyReports([])) == []
    # a read CSV of gph rows only: its variance block is empty
    path = tmp_path / "results_fgn_n60.csv"
    path.write_text(",".join(study.CSV_COLUMNS) + "\ngph,3,9,1,0,0,0,2,1,1,nan\ngph,1,5,6,2,6,2,0,0.75,0.75,0.75\n")
    columns = [column.tolist() for column in read_report_csv(path).columns()]
    assert columns[:11] == [
        ["gph", "gph"], [3, 1], [9, 5], [60, 60], [1, 6], [0, 2], [0, 6], [0, 2], [2, 0], [1.0, 0.75], [1.0, 0.75]
    ]
    assert math.isnan(columns[11][0]) and columns[11][1] == 0.75


def test_api_range_errors_echo_a_long_integer_cut_short():
    huge = 10**4000
    table = StudyReports([_block("gph", 200, (1, 30, 50, 50, 50, 50, 0))])
    for call, args in [(draw_levels, (huge, 1)), (study._seed_hash, (-huge,)), (rank_cutoffs, (table, -huge))]:
        with pytest.raises(ValueError) as caught:
            call(*args)
        assert len(str(caught.value)) < 100 and "..." in str(caught.value)


def test_metrics_report_properties():
    # _metrics against Python int / int: no positives, no negatives, all skips, and counts that
    # sum to exactly 2**53; a table's records carry the same metrics
    rows = [(8, 2, 6, 4), (0, 3, 5, 0), (7, 0, 0, 2), (0, 0, 0, 0), (2**53 - 3, 1, 1, 1), (1, 2**53 - 3, 1, 1)]
    got = np.array(study._metrics(*np.array(rows, dtype=np.int64).T)).T
    assert got[0].tolist() == [14 / 20, 8 / 12, 6 / 8]
    np.testing.assert_array_equal(got, [oracles.metrics(*row) for row in rows])  # nan equals nan here
    assert np.isnan(got[1:4]).tolist() == [[False, True, False], [False, False, True], [True, True, True]]
    table = StudyReports([_block("gph", 50, *((1, 2, *row, 0) for row in rows))])
    np.testing.assert_array_equal([(r.accuracy, r.sensitivity, r.specificity) for r in table], got)


def test_csv_round_trip(tmp_path):
    cfg = small_cfg()
    reports = run_study(cfg)
    paths = write_study_outputs(cfg, reports, tmp_path)
    back = read_report_csv(paths[0])
    assert len(back) == len(reports)
    keyed = {(r.estimator, r.n1, r.n2): r for r in back}
    for r in reports:
        other = keyed[(r.estimator, r.n1, r.n2)]
        assert (other.tp, other.fp, other.tn, other.fn, other.skips) == (
            r.tp,
            r.fp,
            r.tn,
            r.fn,
            r.skips,
        )
        assert other.series_length == 80


@pytest.mark.parametrize(
    "cfg,nan_metrics",
    [
        (StudyConfig("fgn", (50, 100, 200, 500), 1, 3), True),
        (
            small_cfg(
                lengths=(80, 60),
                variance_cutoffs=((3, 9), (1, 20), (1, 4)),
                gph_cutoffs=((20, 59), (1, 12), (1, 5)),
            ),
            False,
        ),
        (StudyConfig("fgn", (50,), 2, 7), True),
        (small_cfg(hurst_grid=(0.2, 0.3, 0.45)), True),
    ],
    ids=["default grids", "unordered cutoffs", "n=50 skips", "no LRD truth"],
)
def test_written_csv_matches_report_rows(tmp_path, cfg, nan_metrics):
    # n = 50's windows ending at block length 50 are all skips, so every metric is nan;
    # with every H below 1/2 there are no positives, so sensitivity is nan
    reports = run_study(cfg)
    paths = write_study_outputs(cfg, reports, tmp_path)
    texts = [path.read_bytes().decode() for path in paths[:-1]]
    assert texts == [oracles.report_csv_text(reports, n) for n in cfg.lengths]
    assert any(",nan" in text for text in texts) == nan_metrics


def test_study_reports_iterates_reports():
    cfg = StudyConfig("fgn", (60, 40), 2, 11, variance_cutoffs=((2, 9), (1, 4)), gph_cutoffs=((3, 30), (1, 12)))
    reports = run_study(cfg)
    # as run_study returned them when it built one MetricsReport per window: estimator, n1, n2,
    # length, then tp, fp, tn, fn and skips, and the metrics as Python fractions
    assert list(reports) == [
        MetricsReport("variance", 2, 9, 60, 6, 1, 11, 6, 0, accuracy=17 / 24, sensitivity=6 / 12, specificity=11 / 12),
        MetricsReport("variance", 1, 4, 60, 7, 2, 10, 5, 0, accuracy=17 / 24, sensitivity=7 / 12, specificity=10 / 12),
        MetricsReport("gph", 3, 30, 60, 9, 6, 6, 3, 0, accuracy=15 / 24, sensitivity=9 / 12, specificity=6 / 12),
        MetricsReport("gph", 1, 12, 60, 6, 3, 9, 6, 0, accuracy=15 / 24, sensitivity=6 / 12, specificity=9 / 12),
        MetricsReport("variance", 2, 9, 40, 3, 1, 11, 9, 0, accuracy=14 / 24, sensitivity=3 / 12, specificity=11 / 12),
        MetricsReport("variance", 1, 4, 40, 6, 1, 11, 6, 0, accuracy=17 / 24, sensitivity=6 / 12, specificity=11 / 12),
        MetricsReport("gph", 3, 30, 40, 7, 4, 8, 5, 0, accuracy=15 / 24, sensitivity=7 / 12, specificity=8 / 12),
        MetricsReport("gph", 1, 12, 40, 7, 2, 10, 5, 0, accuracy=17 / 24, sensitivity=7 / 12, specificity=10 / 12),
    ]
    assert isinstance(reports, StudyReports) and len(reports) == 8
    with pytest.raises(TypeError):
        hash(reports)
    assert reports == run_study(cfg)
    assert reports != run_study(StudyConfig(**{**vars(cfg), "master_seed": 12}))
    assert reports != list(reports)


def test_study_builds_no_report_objects(tmp_path, monkeypatch):
    built = []

    class CountingReport(MetricsReport):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(study, "MetricsReport", CountingReport)
    cfg = StudyConfig("fgn", (50, 100), 1, 4)
    reports = run_study(cfg)
    csvs = write_study_outputs(cfg, reports, tmp_path)[:-1]
    assert built == []
    # rank builds a record only for each row it prints
    assert main(["rank", *map(str, csvs), "-k", "5"]) == 0
    assert len(built) == 5 < len(reports)
    built.clear()
    assert len(list(reports)) == len(built) == len(reports)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(scenario="subordinated-fgn", lengths=(4, 50, 100, 500), variance_cutoffs=None, gph_cutoffs=None),
        dict(lengths=(80, 200)),
        dict(variance_cutoffs=((2, 9),), gph_cutoffs=((3, 40),)),
        dict(lengths=(50, 130), variance_cutoffs=None, gph_cutoffs=None, workers=2),
    ],
    ids=["default grids", "explicit grids", "one-window grids", "2 workers"],
)
def test_manifest_reruns_the_study(tmp_path, overrides):
    # the manifest is the config as run: given back as --config, it rewrites every file, itself included
    cfg = small_cfg(**overrides)
    written = write_study_outputs(cfg, run_study(cfg), tmp_path / "first")
    again = tmp_path / "again"
    assert main(["study", "--config", str(written[-1]), "--out-dir", str(again)]) == 0
    assert sorted(path.name for path in again.iterdir()) == sorted(path.name for path in written)
    for path in written:
        assert (again / path.name).read_bytes() == path.read_bytes(), path.name


def test_writer_resolves_no_grid(tmp_path, monkeypatch):
    cfg = small_cfg(scenario="subordinated-fgn", lengths=(50, 80), variance_cutoffs=None)
    reports = run_study(cfg)

    def no_grid(*args):
        raise AssertionError("a window grid was resolved")

    monkeypatch.setattr(StudyConfig, "grids_for", no_grid)
    monkeypatch.setattr(study, "default_variance_grid", no_grid)
    monkeypatch.setattr(study, "default_gph_grid", no_grid)
    paths = write_study_outputs(cfg, reports, tmp_path)
    assert [path.name for path in paths] == [
        "results_subordinated-fgn_n50.csv",
        "results_subordinated-fgn_n80.csv",
        "manifest_subordinated-fgn.json",
    ]


def test_read_report_csv_needs_length_in_name(tmp_path):
    cfg = small_cfg()
    source = write_study_outputs(cfg, run_study(cfg), tmp_path)[0]
    renamed = source.rename(tmp_path / "results_fgn.csv")
    with pytest.raises(ValueError, match="results_fgn.csv"):
        read_report_csv(renamed)
