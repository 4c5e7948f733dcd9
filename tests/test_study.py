import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrdetect import (
    ConfigError,
    GphConfig,
    MetricsReport,
    StudyConfig,
    StudyReports,
    TimeSeries,
    VariancePlotConfig,
    default_gph_grid,
    default_hurst_grid,
    default_variance_grid,
    gph_estimate,
    ground_truth_label,
    rank_cutoffs,
    read_report_csv,
    replication_seed,
    run_study,
    variance_plot_slope,
    write_study_outputs,
)
from lrdetect import oracles, study
from lrdetect.excursion import MAX_PSI
from lrdetect.fgn import MAX_LENGTH
from lrdetect.gph import full_ordinates, gph_regressors
from lrdetect.study import MAX_WORKERS, WindowGrid, pool_size
from lrdetect.varplot import block_mean_variances


def _labels(grid, logs, threshold):
    """Study labels of one series per window of ``grid``: 1 = LRD, 0 = non-LRD, 2 = skip."""
    labels = np.empty(grid.size, dtype=np.int64)
    for cols, slopes, _ in grid.slope_blocks(logs[None, :]):
        labels[cols] = np.where(np.isnan(slopes[0]), 2, np.where(slopes[0] > threshold, 1, 0))
    return labels


def _variance_labels(series, grid):
    """Study labels per variance window through WindowGrid."""
    lmin, lmax = int(grid[:, 0].min()), int(grid[:, 1].max())
    curve = block_mean_variances(series, lmin, lmax)
    with np.errstate(divide="ignore"):
        logs = np.log(curve.s2)
    return _labels(WindowGrid(np.log(curve.lengths.astype(np.float64)), grid - lmin), logs, -1.0)


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
        small_cfg(scenario="unknown").validate()
    with pytest.raises(ConfigError):
        small_cfg(replications=0).validate()
    with pytest.raises(ConfigError):
        small_cfg(variance_cutoffs=((1, 100),)).validate()
    with pytest.raises(ConfigError):
        small_cfg(gph_cutoffs=((1, 80),)).validate()
    with pytest.raises(ConfigError):
        small_cfg(hurst_grid=(0.2, 1.0)).validate()
    with pytest.raises(ConfigError):
        small_cfg(workers=0).validate()
    with pytest.raises(ConfigError):
        small_cfg(variance_cutoffs=()).validate()
    small_cfg().validate()


def test_run_study_counts_are_conserved():
    cfg = small_cfg()
    reports = run_study(cfg)
    expected = len(cfg.variance_cutoffs) + len(cfg.gph_cutoffs)
    assert len(reports) == expected
    total = cfg.replications * 12
    for r in reports:
        assert r.tp + r.fp + r.tn + r.fn + r.skips == total


def test_run_study_deterministic_across_runs_and_workers(tmp_path):
    cfg = small_cfg()
    first = write_study_outputs(cfg, run_study(cfg), tmp_path / "a")
    second = write_study_outputs(cfg, run_study(cfg), tmp_path / "b")
    parallel_cfg = small_cfg(workers=2)
    third = write_study_outputs(parallel_cfg, run_study(parallel_cfg), tmp_path / "c")
    reference = first[0].read_bytes()
    assert second[0].read_bytes() == reference
    assert third[0].read_bytes() == reference


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
    # seed 0, default grids; recorded when the study still transformed one
    # TimeSeries at a time, so the batched transform must keep every byte
    cfg = StudyConfig(scenario="subordinated-fgn", lengths=(50, 100, 200, 500), replications=10, master_seed=0)
    paths = write_study_outputs(cfg, run_study(cfg), tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == {
        "results_subordinated-fgn_n50.csv": "f2b2ea7fd5c7c27481755210b53763ca99ceec2e0843332bcc99ee1028385d0f",
        "results_subordinated-fgn_n100.csv": "93539318ca1bc276a95a1fe3f26805d1ac5058709b1a29f3ac779462ee552a62",
        "results_subordinated-fgn_n200.csv": "058f8aab919e1733a9e1701de62197aa11139fd8ccc73d366b440bc69b841782",
        "results_subordinated-fgn_n500.csv": "a5d8f088b5c3d1f35f08d5754bd0e974c7b214c7b4f2acac3a2ef11630296cd1",
        "manifest_subordinated-fgn.json": "432d2646ec9358a20ecbaeb9accb9db1f6a589adf6226d7ee29052ac45b646b9",
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
    small_cfg(workers=MAX_WORKERS).validate()
    with pytest.raises(ConfigError, match="workers"):
        small_cfg(workers=MAX_WORKERS + 1).validate()


def test_import_does_not_load_multiprocessing():
    import lrdetect

    src = str(Path(lrdetect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    check = "import sys, lrdetect; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_psi_has_a_ceiling():
    small_cfg(psi=MAX_PSI).validate()
    with pytest.raises(ConfigError, match="psi"):
        small_cfg(psi=MAX_PSI + 1).validate()


def test_length_has_a_ceiling_checked_before_any_compute(monkeypatch):
    small_cfg(lengths=(80, MAX_LENGTH)).validate()

    def no_compute(*args):
        raise AssertionError("a series was simulated")

    monkeypatch.setattr(study, "simulate_fgn_paths", no_compute)
    # the shorter length comes first, yet nothing runs before the long one is refused
    cfg = small_cfg(lengths=(50, 10**13), variance_cutoffs=None, gph_cutoffs=None)
    with pytest.raises(ConfigError, match=rf"lengths .*\[4, {MAX_LENGTH}\]"):
        run_study(cfg)


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


def test_rank_cutoffs_orders_and_saturates():
    rows = [
        MetricsReport("variance", 1, 4, 200, tp=90, fp=10, tn=90, fn=10, skips=0),
        MetricsReport("variance", 1, 9, 200, tp=95, fp=10, tn=90, fn=5, skips=0),
        MetricsReport("variance", 2, 5, 200, tp=95, fp=10, tn=90, fn=5, skips=0),
        MetricsReport("gph", 1, 30, 200, tp=50, fp=50, tn=50, fn=50, skips=0),
    ]
    top = rank_cutoffs(rows, 10)
    assert len(top) == 4  # k larger than available rows returns everything
    assert [r.accuracy for r in top] == sorted((r.accuracy for r in rows), reverse=True)
    # equal accuracy and sensitivity: narrower window wins
    assert (top[0].n1, top[0].n2) == (2, 5)
    assert (top[1].n1, top[1].n2) == (1, 9)
    assert rank_cutoffs(rows, 2) == top[:2]
    with pytest.raises(ValueError):
        rank_cutoffs([], 5)


def test_metrics_report_properties():
    r = MetricsReport("variance", 1, 4, 200, tp=8, fp=2, tn=6, fn=4, skips=1)
    assert r.accuracy == 14 / 20
    assert r.sensitivity == 8 / 12
    assert r.specificity == 6 / 8
    empty = MetricsReport("variance", 1, 4, 200, tp=0, fp=0, tn=0, fn=0, skips=20)
    assert np.isnan(empty.accuracy)


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
    # as run_study returned them when it built one MetricsReport per window
    assert list(reports) == [
        MetricsReport("variance", 2, 9, 60, tp=6, fp=1, tn=11, fn=6, skips=0),
        MetricsReport("variance", 1, 4, 60, tp=7, fp=2, tn=10, fn=5, skips=0),
        MetricsReport("gph", 3, 30, 60, tp=9, fp=6, tn=6, fn=3, skips=0),
        MetricsReport("gph", 1, 12, 60, tp=6, fp=3, tn=9, fn=6, skips=0),
        MetricsReport("variance", 2, 9, 40, tp=3, fp=1, tn=11, fn=9, skips=0),
        MetricsReport("variance", 1, 4, 40, tp=6, fp=1, tn=11, fn=6, skips=0),
        MetricsReport("gph", 3, 30, 40, tp=7, fp=4, tn=8, fn=5, skips=0),
        MetricsReport("gph", 1, 12, 40, tp=7, fp=2, tn=10, fn=5, skips=0),
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
    write_study_outputs(cfg, reports, tmp_path)
    assert built == []
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
def test_manifest_text_is_the_json_encoders(tmp_path, overrides):
    # the writer reads the grids from the report table; the reference resolves them from the config
    cfg = small_cfg(**overrides)
    manifest = write_study_outputs(cfg, run_study(cfg), tmp_path)[-1]
    assert manifest.read_text() == json.dumps(oracles.manifest_dict(cfg), sort_keys=True, indent=2) + "\n"


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
