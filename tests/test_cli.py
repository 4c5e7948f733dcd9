import ast
import errno
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lrdetect.gph
from lrdetect import cli, default_gph_grid, default_hurst_grid, default_variance_grid, read_series_csv, replication_seed
from lrdetect.cli import main


def test_simulate_writes_series_and_provenance(tmp_path, capsys):
    argv = ["simulate", "--hurst", "0.7", "--length", "64", "--count", "2", "--seed", "11"]
    for scenario, extra, alpha in [
        ("fgn", [], {}),
        ("subordinated-fgn", ["--sigma2", "2.5", "--alpha", "0.7"], {"alpha": 0.7}),
    ]:
        out_dir = tmp_path / scenario
        assert main([*argv, "--scenario", scenario, "--out-dir", str(out_dir), *extra]) == 0
        files = sorted(out_dir.glob("*.csv"))
        assert len(files) == 2
        for rep, path in enumerate(files):
            assert read_series_csv(path).n == 64
            assert json.loads(path.with_suffix(".json").read_text()) == {
                "model": scenario,
                "hurst": 0.7,
                "sigma2": 2.5 if alpha else 1.0,
                "n": 64,
                "seed": replication_seed(11, scenario, 0, rep),
                **alpha,
            }


def test_simulate_is_reproducible(tmp_path):
    args = [
        "simulate",
        "--scenario",
        "subordinated-fgn",
        "--hurst",
        "0.8",
        "--length",
        "32",
        "--seed",
        "3",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    a = next((tmp_path / "a").glob("*.csv")).read_bytes()
    b = next((tmp_path / "b").glob("*.csv")).read_bytes()
    assert a == b


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--count", "0")])
def test_simulate_rejects_bad_seed_and_count_before_writing(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "out"
    argv = ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "16", "--seed", "3"]
    assert main([*argv, "--out-dir", str(out_dir), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and value in err
    assert not out_dir.exists()


@pytest.mark.parametrize("alpha", ["0", "-5", "inf", "nan"])
@pytest.mark.parametrize("scenario", ["fgn", "subordinated-fgn"])
def test_simulate_rejects_bad_alpha_before_writing(tmp_path, capsys, scenario, alpha):
    # fgn never reads alpha, yet a bad one is refused there too; an infinite one
    # would reach the sidecar as the token Infinity, which is not JSON
    out_dir = tmp_path / "out"
    argv = ["simulate", "--scenario", scenario, "--hurst", "0.7", "--length", "16"]
    assert main([*argv, "--seed", "3", "--alpha", alpha, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag,value", [("--sigma2", "inf"), ("--sigma2", "nan"), ("--length", "10000000000000")])
def test_simulate_rejects_infinite_variance_and_overlong_paths_before_writing(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "out"
    argv = ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "200", "--seed", "1"]
    assert main([*argv, "--out-dir", str(out_dir), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag.lstrip("-") in err and "Traceback" not in err
    assert not out_dir.exists()


def test_simulate_names_an_overflowing_sigma2_without_warnings(tmp_path, capsys):
    argv = ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "200", "--seed", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--sigma2", "1e308", "--out-dir", str(tmp_path / "out")]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sigma2=1e+308" in err and "n=200" in err


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_simulation_leaves_out_dir_as_it_was(tmp_path, capsys, existing):
    out_dir = tmp_path / "out"
    if existing:
        out_dir.mkdir()
    argv = ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "200", "--seed", "1", "--sigma2", "1e308"]
    assert main([*argv, "--out-dir", str(out_dir)]) == 1
    assert "sigma2" in capsys.readouterr().err
    assert out_dir.exists() == existing and not any(tmp_path.rglob("*.csv"))


def test_estimate_ignores_json_next_to_csv(tmp_path, capsys):
    series = tmp_path / "x.csv"
    series.write_text("value\n" + "".join(f"{v % 7}\n" for v in range(40)))
    (tmp_path / "x.json").write_text("{not json")
    argv = ["estimate", str(series), "--estimator", "variance", "--n1", "1", "--n2", "4"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("estimator variance window 1 4\n")


@pytest.mark.parametrize(
    "text, where",
    [("value\n1.0\nabc\n", ": line 3: "), ("value\n", ": no values"), ("value\n1.0\nnan\n", ": line 3: ")],
)
def test_estimate_names_file_of_unreadable_series(tmp_path, capsys, text, where):
    series = tmp_path / "bad.csv"
    series.write_text(text)
    assert main(["estimate", str(series), "--estimator", "variance", "--n1", "1", "--n2", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {series}{where}")


def test_estimate_variance_and_gph(tmp_path, capsys):
    main(
        [
            "simulate",
            "--scenario",
            "fgn",
            "--hurst",
            "0.7",
            "--length",
            "500",
            "--seed",
            "21",
            "--out-dir",
            str(tmp_path),
        ]
    )
    capsys.readouterr()
    path = str(next(tmp_path.glob("*.csv")))
    assert main(["estimate", path, "--estimator", "variance", "--n1", "1", "--n2", "10"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out and "label" in out
    assert main(["estimate", path, "--estimator", "gph", "--trim", "1", "--bandwidth", "22"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("estimator gph") and "label" in out
    code = main(
        [
            "estimate",
            path,
            "--estimator",
            "variance",
            "--delta",
            "0.25",
            "--m",
            "4",
            "--quantile-transform",
            "50",
            "--level-seed",
            "8",
        ]
    )
    assert code == 0
    assert "label" in capsys.readouterr().out


def test_estimate_clamped_window_prints_slope(tmp_path, capsys):
    # at n = 100, delta 0.9 and m 4 ask for block lengths up to 253; the
    # window is clamped to 99, the longest block length with two blocks
    argv = ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "100", "--seed", "4"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    path = str(next(tmp_path.glob("*.csv")))
    capsys.readouterr()
    with pytest.warns(RuntimeWarning) as record:
        code = main(["estimate", path, "--estimator", "variance", "--delta", "0.9", "--m", "4"])
    assert code == 0
    assert [str(w.message) for w in record if "clamped" in str(w.message)] == [
        "window upper end 253 clamped to 99, one below series length 100"
    ]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "estimator variance window 63 99"
    assert lines[1].startswith("slope ") and np.isfinite(float(lines[1].split()[1]))


def test_estimate_missing_window_fails(tmp_path, capsys):
    series = tmp_path / "x.csv"
    series.write_text("value\n1.0\n2.0\n3.0\n")
    assert main(["estimate", str(series), "--estimator", "variance"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["variance", "--n1", "1", "--n2", "4", "--delta", "0.25", "--m", "4"], "--n1, --n2 would be ignored"),
        (["variance", "--n1", "1", "--delta", "0.25", "--m", "4"], "--n1 would be ignored"),
        (["variance", "--n1", "1", "--n2", "4", "--bandwidth", "20"], "--bandwidth would be ignored"),
        (["gph", "--trim", "1", "--bandwidth", "20", "--n1", "3"], "--n1 would be ignored"),
        (["gph", "--trim", "1", "--bandwidth", "20", "--delta", "0.25"], "--delta would be ignored"),
        (["variance", "--n1", "1", "--n2", "4", "--level-seed", "5"], "--level-seed together or neither"),
    ],
)
def test_estimate_rejects_flags_it_would_ignore(tmp_path, capsys, flags, named):
    # the series file does not exist: the flags are rejected before it is read
    missing = tmp_path / "absent.csv"
    assert main(["estimate", str(missing), "--estimator", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert str(missing) not in captured.err


def test_study_with_config_file_and_overrides(tmp_path, capsys):
    cfg = {
        "lengths": [60],
        "replications": 4,
        "variance_cutoffs": [[1, 5], [2, 9]],
        "gph_cutoffs": [[1, 14]],
        "workers": 1,
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = main(
        [
            "study",
            "--config",
            str(cfg_path),
            "--seed",
            "5",
            "--replications",
            "3",
            "--scenario",
            "fgn",
            "--out-dir",
            str(out_dir),
            "--workers",
            "1",
        ]
    )
    assert code == 0
    results = out_dir / "results_fgn_n60.csv"
    manifest = out_dir / "manifest_fgn.json"
    assert results.exists() and manifest.exists()
    recorded = json.loads(manifest.read_text())
    assert recorded["master_seed"] == 5
    assert recorded["replications"] == 3  # the flag wins over the config
    assert recorded["variance_cutoffs"] == [[1, 5], [2, 9]]
    capsys.readouterr()
    assert main(["rank", str(results), "-k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + top 3
    assert lines[0].split()[0] == "estimator"


def test_study_missing_required_settings(tmp_path, capsys):
    code = main(["study", "--seed", "1", "--workers", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: missing required study settings: replications, scenario, out-dir\n"


def test_study_rejects_invalid_cutoffs(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"lengths": [50], "variance_cutoffs": [[1, 80]]}))
    code = main(
        [
            "study",
            "--config",
            str(cfg_path),
            "--seed",
            "1",
            "--replications",
            "10",
            "--scenario",
            "fgn",
            "--out-dir",
            str(tmp_path / "out"),
            "--workers",
            "1",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_rank_on_missing_file(capsys):
    assert main(["rank", "/nonexistent/results.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def _study_with_config(tmp_path, capsys, cfg, *extra):
    """Run `study` on a JSON config; return (exit code, stderr, whether out-dir was made).

    The required settings the config lacks are given as flags; a flag would
    override the config's own value.
    """
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    argv = ["study", "--config", str(cfg_path), *extra]
    required = {
        "master_seed": ["--seed", "1"],
        "replications": ["--replications", "1"],
        "scenario": ["--scenario", "fgn"],
        "workers": ["--workers", "1"],
        "out_dir": ["--out-dir", str(out_dir)],
    }
    for key, flag in required.items():
        if key not in cfg:
            argv += flag
    code = main(argv)
    return code, capsys.readouterr().err, out_dir.exists()


def test_study_rejects_unknown_config_keys_before_compute(tmp_path, capsys):
    code, err, wrote = _study_with_config(tmp_path, capsys, {"lenghts": [50], "replications": 2})
    assert code == 1
    assert "lenghts" in err
    assert not wrote


# Config files that must fail before any compute, and the key the error names.
BAD_CONFIGS = [
    ({"lengths": 100}, "lengths"),
    ({"lengths": [50.0]}, "lengths"),
    ({"lengths": "50,abc"}, "lengths"),
    ({"lengths": "50,100"}, "lengths must be a list"),  # the comma form is the --lengths flag's only
    ({"alpha": None}, "alpha"),
    ({"hurst_grid": []}, "hurst_grid"),
    ({"hurst_grid": "0.4"}, "hurst_grid"),
    ({"variance_cutoffs": []}, "variance_cutoffs"),
    ({"gph_cutoffs": []}, "gph_cutoffs"),
    ({"gph_cutoffs": [[1, 2, 3]]}, "gph_cutoffs"),
    ({"variance_cutoffs": [[1, 80]]}, "variance_cutoffs"),  # n2 past the default length 50
    ({"lengths": [50], "gph_cutoffs": [[1, 50]]}, "gph_cutoffs"),  # bandwidth past n - 1
    ({"replications": 2.7}, "replications"),
    ({"workers": 1.9}, "workers"),
    ({"psi": "abc"}, "psi"),
    ({"psi": 10**9}, "psi"),
    ({"level_seed": -1}, "level_seed"),
    ({"master_seed": -1}, "master_seed"),
    ({"out_dir": 3}, "out_dir"),
    # seed and scale were other spellings of master_seed and replications
    ({"seed": -1}, "unknown study setting(s): seed"),
    ({"seed": 1, "master_seed": 2}, "unknown study setting(s): seed"),
    ({"scale": "0.1"}, "unknown study setting(s): scale"),
    ({"scale": "0.1", "replications": 2}, "unknown study setting(s): scale"),
    ({"scale": 0.0004}, "unknown study setting(s): scale"),
]


@pytest.mark.parametrize(
    "cfg,key", BAD_CONFIGS, ids=[json.dumps(cfg, separators=(",", ":")) for cfg, _ in BAD_CONFIGS]
)
def test_study_rejects_bad_config_values_before_compute(tmp_path, capsys, cfg, key):
    code, err, wrote = _study_with_config(tmp_path, capsys, cfg)
    assert code == 1
    assert err.startswith("error:") and key in err
    assert not wrote


@pytest.mark.parametrize(
    "cfg,flags,message",
    [
        ({"lengths": [50, 100, 50]}, [], "lengths repeats 50"),
        ({}, ["--lengths", "50,050"], "lengths repeats 50"),
        ({"variance_cutoffs": [[1, 4], [2, 9], [1, 4]]}, [], "variance_cutoffs repeats (1, 4)"),
        ({"lengths": [50], "gph_cutoffs": [[3, 20], [3, 20]]}, [], "gph_cutoffs repeats (3, 20)"),
    ],
    ids=["lengths", "lengths-flag", "variance_cutoffs", "gph_cutoffs"],
)
def test_study_rejects_repeats_before_compute(tmp_path, capsys, cfg, flags, message):
    # a repeat would tally its series twice, write a row twice or print a path twice
    code, err, wrote = _study_with_config(tmp_path, capsys, cfg, *flags)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not wrote


def test_study_allows_repeated_hurst_values(tmp_path, capsys):
    # each Hurst index hashes its own seeds, so a repeated value adds distinct series
    code, _, wrote = _study_with_config(tmp_path, capsys, {"lengths": [50], "hurst_grid": [0.3, 0.3]})
    assert code == 0 and wrote


@pytest.mark.parametrize(
    "config,flags,message",
    [
        ('{"lengths": [50], }', ["--replications", "100"], "{config}: not valid JSON: "),
        # a count that could never finish is refused before the study starts
        (None, ["--replications", "9" * 61], "replications must lie in [1, 1000000], got 9999"),
        ('{"lengths": [50]}\udcff', ["--replications", "100"], "{config}: line 1: not UTF-8 text"),
        ('{"lengths": [50],\n "psi": 1\udcff}', ["--replications", "100"], "{config}: line 2: not UTF-8 text"),
        # json.loads refuses an integer past Python's 4,300-digit limit with a plain ValueError
        ('{"level_seed": ' + "9" * 5000 + "}", ["--replications", "100"], "{config}: not valid JSON: "),
        # json.loads reads the non-JSON token Infinity as a float
        ('{"alpha": Infinity}', ["--replications", "100"], "alpha must be positive and finite, got inf"),
        ("[1, 2]", ["--replications", "100"], "{config}: expected a JSON object of study settings"),
    ],
    ids=[
        "malformed-json", "replications-past-ceiling", "not-utf-8", "not-utf-8-line-2", "integer-past-digit-limit",
        "infinite-alpha", "not-an-object",
    ],
)
def test_study_input_errors_name_what_was_given(tmp_path, capsys, monkeypatch, config, flags, message):
    def no_compute(cfg):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_study", no_compute)
    out_dir = tmp_path / "out"
    argv = ["study", "--seed", "1", "--scenario", "fgn", "--workers", "1", "--out-dir", str(out_dir), *flags]
    if config is not None:
        path = tmp_path / "bad.json"
        path.write_text(config, encoding="utf-8", errors="surrogateescape")  # "\udcff" is the byte 0xff
        argv += ["--config", str(path)]
        message = message.format(config=path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out_dir.exists()


def test_study_refuses_a_manifest_of_per_length_grids_in_one_short_line(tmp_path, capsys):
    # manifests once listed every window of every length (654 KB for the README study);
    # given as a config, such a file fails on its first grid without echoing the grid
    lengths = (50, 100, 200, 500)
    manifest = {
        "alpha": 1.0,
        "gph_cutoffs": {str(n): default_gph_grid(n) for n in lengths},
        "hurst_grid": list(default_hurst_grid("fgn")),
        "lengths": lengths,
        "level_seed": 7,
        "master_seed": 1,
        "psi": 100,
        "replications": 100,
        "scenario": "fgn",
        "variance_cutoffs": {str(n): default_variance_grid(n) for n in lengths},
        "workers": 4,
    }
    path = tmp_path / "manifest_fgn.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2))
    out_dir = tmp_path / "out"
    assert main(["study", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: variance_cutoffs must be a list, got {'100': [[1, 2], ") and len(err) < 200
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "scenario,flag,value,key",
    [
        ("subordinated-fgn", "--level-seed", "-1", "level_seed"),
        ("subordinated-fgn", "--level-seed", str(2**64), "level_seed"),
        ("fgn", "--level-seed", str(2**64), "level_seed"),
        ("fgn", "--seed", "-1", "master_seed"),  # the last --seed wins
    ],
)
def test_study_rejects_out_of_range_seeds(tmp_path, capsys, scenario, flag, value, key):
    out_dir = tmp_path / "out"
    argv = ["study", "--seed", "1", "--replications", "1", "--workers", "1", "--out-dir", str(out_dir)]
    assert main([*argv, "--scenario", scenario, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "psi,seed,message",
    [
        ("10", "-5", "level seed"),
        ("10", str(2**64), "level seed"),
        ("0", "5", "psi"),
        (str(10**9), "5", "psi"),
    ],
)
def test_estimate_rejects_bad_quantile_transform(tmp_path, capsys, psi, seed, message):
    series = tmp_path / "x.csv"
    series.write_text("value\n" + "".join(f"{v}\n" for v in range(20)))
    argv = ["estimate", str(series), "--estimator", "variance", "--n1", "1", "--n2", "4"]
    assert main([*argv, "--quantile-transform", psi, "--level-seed", seed]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "psi,seed,flag",
    [("0", "1", "--quantile-transform"), (str(10**9), "1", "--quantile-transform"), ("10", "-1", "--level-seed")],
)
def test_estimate_checks_level_flags_before_reading_the_series(tmp_path, capsys, psi, seed, flag):
    missing = tmp_path / "missing.csv"
    argv = ["estimate", str(missing), "--estimator", "variance", "--n1", "1", "--n2", "4"]
    assert main([*argv, "--quantile-transform", psi, "--level-seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ") and str(missing) not in captured.err


def test_rank_checks_k_before_opening_a_file(tmp_path, capsys):
    missing = tmp_path / "results_fgn_n50.csv"
    assert main(["rank", str(missing), "-k", "0"]) == 1
    assert capsys.readouterr().err == "error: -k must be >= 1, got 0\n"


def test_rank_refuses_a_results_file_given_twice(tmp_path, capsys, monkeypatch):
    # two spellings of one file would rank each of its rows twice; the rule holds before any file is read
    monkeypatch.chdir(tmp_path)
    Path("results_fgn_n60.csv").write_text(_REPORT_HEADER + "gph,1,5,1,0,0,0,0,1,1,nan\n")
    for argv, name in [
        (["results_fgn_n60.csv", "./results_fgn_n60.csv"], "'./results_fgn_n60.csv' repeats 'results_fgn_n60.csv'"),
        (["missing_n60.csv", "results_fgn_n60.csv", "missing_n60.csv"], "'missing_n60.csv' repeats 'missing_n60.csv'"),
    ]:
        assert main(["rank", *argv, "-k", "4"]) == 1
        assert capsys.readouterr() == ("", f"error: results file {name}\n")
    long = "x" * 100 + "_n60.csv"
    assert main(["rank", long, long]) == 1
    assert len(capsys.readouterr().err) < 100  # both names cut short


_HUGE = "9" * 4000
_STUDY = ["study", "--seed", "1", "--replications", "1", "--workers", "1", "--out-dir", "out"]


@pytest.mark.parametrize(
    "config,argv,name",
    [
        ({"level_seed": int(_HUGE)}, [*_STUDY, "--scenario", "fgn"], "level_seed"),
        (None, [*_STUDY, "--scenario", "fgn", "--workers", _HUGE], "workers"),
        (None, ["estimate", "x.csv", "--estimator", "variance", "--n1", "1", "--n2", "4",
                "--quantile-transform", "10", "--level-seed", _HUGE], "--level-seed"),
        ({"lengths": [50], "variance_cutoffs": [[1, int(_HUGE)]]}, [*_STUDY, "--scenario", "fgn"], "variance_cutoffs"),
        ({"lengths": [50], "gph_cutoffs": [[1, int(_HUGE)]]}, [*_STUDY, "--scenario", "fgn"], "gph_cutoffs"),
        ({"variance_cutoffs": [[1, int(_HUGE)]] * 2}, [*_STUDY, "--scenario", "fgn"], "variance_cutoffs repeats"),
        ({"scenario": _HUGE}, _STUDY, "scenario"),
        (None, ["estimate", "x.csv", "--estimator", "variance", "--n1", "1", "--n2", _HUGE], "n2"),
        (None, ["estimate", "x.csv", "--estimator", "gph", "--trim", "1", "--bandwidth", _HUGE], "bandwidth"),
        (None, ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", _HUGE, "--seed", "1",
                "--out-dir", "out"], "length"),
        (None, ["rank", "results_fgn_n50.csv", "-k", f"-{_HUGE}"], "-k"),
        # a value read from a file is echoed cut short too
        (None, ["estimate", "long.csv", "--estimator", "variance", "--n1", "1", "--n2", "4"], "line 3"),
        (None, ["rank", "results_long_n50.csv", "-k", "1"], "line 2"),
        (None, ["rank", "results_wide_n50.csv", "-k", "1"], "line 2"),
    ],
    ids=[
        "study-level-seed", "study-workers", "estimate-level-seed", "study-variance-cutoffs", "study-gph-cutoffs",
        "study-repeated-cutoffs", "study-scenario", "estimate-n2", "estimate-bandwidth", "simulate-length", "rank-k",
        "estimate-series-line", "rank-count-field", "rank-window",
    ],
)
def test_range_errors_echo_a_long_value_cut_short(tmp_path, capsys, monkeypatch, config, argv, name):
    monkeypatch.chdir(tmp_path)
    Path("x.csv").write_text("value\n" + "".join(f"{v}\n" for v in range(20)))
    Path("long.csv").write_text("value\n1.0\n" + "x" * 100_000 + "\n2.0\n")
    Path("results_long_n50.csv").write_text(_REPORT_HEADER + "gph,1,5,1,0,0," + "9" * 100_000 + ",0,1,1,nan\n")
    Path("results_wide_n50.csv").write_text(_REPORT_HEADER + f"gph,{_HUGE},5,1,0,0,0,0,1,1,nan\n")
    if config is not None:
        Path("study.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "study.json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and name in captured.err and len(captured.err) < 200
    assert captured.err.count("\n") == 1 and "..." in captured.err and _HUGE not in captured.err
    assert not Path("out").exists()


@pytest.mark.parametrize(
    "argv,err",
    [
        ([*_STUDY, "--scenario", "fgn", "--workers", "65"], "error: workers must lie in [1, 64], got 65\n"),
        (["estimate", "x.csv", "--estimator", "variance", "--n1", "1", "--n2", "4",
          "--quantile-transform", "10", "--level-seed", "-1"],
         "error: --level-seed: level seed must lie in [0, 2**64), got -1\n"),
        (["estimate", "x.csv", "--estimator", "variance", "--n1", "1", "--n2", "30"],
         "error: n2=30 exceeds series length 20\n"),
        (["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "0", "--seed", "1", "--out-dir", "out"],
         "error: length must lie in [1, 10000000], got 0\n"),
        (["rank", "results_fgn_n50.csv", "-k", "-3"], "error: -k must be >= 1, got -3\n"),
    ],
    ids=["study-workers", "estimate-level-seed", "estimate-n2", "simulate-length", "rank-k"],
)
def test_range_errors_echo_a_short_value_whole(tmp_path, capsys, monkeypatch, argv, err):
    monkeypatch.chdir(tmp_path)
    Path("x.csv").write_text("value\n" + "".join(f"{v}\n" for v in range(20)))
    assert main(argv) == 1
    assert capsys.readouterr().err == err


# estimate's exit code, stdout and stderr, recorded, on the README's series (r000
# of `simulate --scenario fgn --hurst 0.7 --length 200 --seed 42`) and on a
# constant one, whose ordinates are exact zeros; perfbench's cli-long check
# recomputes its expected output through the estimators, so only these pin it.
_PINNED_ESTIMATES = [
    ("readme", ["--estimator", "variance", "--n1", "1", "--n2", "4"], 0,
     "estimator variance window 1 4\nslope -0.694169\nlabel LRD\n", ""),
    ("readme", ["--estimator", "gph", "--trim", "1", "--bandwidth", "141"], 0,
     "estimator gph window 1 141\nd 0.188247\nlabel LRD\n", ""),
    ("readme", ["--estimator", "variance", "--delta", "0.25", "--m", "4"], 0,
     "estimator variance window 3 16\nslope -0.849790\nlabel LRD\n", ""),
    ("constant", ["--estimator", "variance", "--n1", "1", "--n2", "4"], 1,
     "", "error: zero block variance at block lengths [1, 2, 3, 4]\n"),
    ("constant", ["--estimator", "gph", "--trim", "1", "--bandwidth", "20"], 1,
     "", "error: zero ordinate at frequency indices [1, 2, 3, 4, 5, 6, ...] (20 in all)\n"),
]


@pytest.mark.parametrize(
    "series,flags,code,out,err",
    _PINNED_ESTIMATES,
    ids=["variance", "gph", "variance-scaled", "zero-variance", "zero-ordinate"],
)
def test_estimate_output_is_pinned(tmp_path, capsys, series, flags, code, out, err):
    simulate = ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "200", "--seed", "42"]
    assert main([*simulate, "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "constant.csv").write_text("value\n" + "1.0\n" * 200)
    capsys.readouterr()
    path = tmp_path / ("fgn_h0.7000_r000.csv" if series == "readme" else "constant.csv")
    assert main(["estimate", str(path), *flags]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "flags,curve",
    [
        (["--estimator", "variance", "--n1", "1", "--n2", "5000"], lambda x: lrdetect.block_mean_variances(x, 1, 5000)),
        (["--estimator", "gph", "--trim", "1", "--bandwidth", "9999"], lambda x: lrdetect.full_ordinates(x)[1:]),
    ],
    ids=["variance", "gph"],
)
def test_estimate_error_line_is_short_for_a_long_window(tmp_path, capsys, flags, curve):
    # thousands of zero entries in the window: the error names the first few and their count
    path = tmp_path / "constant.csv"
    path.write_text("value\n" + "1.0\n" * 10_000)
    zeros = int(np.count_nonzero(curve(read_series_csv(path)) == 0.0))
    assert main(["estimate", str(path), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: zero ") and err.endswith(f", ...] ({zeros} in all)\n")
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_estimate_checks_gph_bandwidth_before_the_periodogram(tmp_path, capsys, monkeypatch):
    def no_periodogram(values):
        raise AssertionError("the periodogram was computed")

    monkeypatch.setattr(lrdetect.gph, "ordinate_rows", no_periodogram)
    series = tmp_path / "x.csv"
    series.write_text("value\n" + "".join(f"{v}\n" for v in range(20)))
    assert main(["estimate", str(series), "--estimator", "gph", "--trim", "1", "--bandwidth", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bandwidth 20 exceeds n - 1 = 19\n"


_REPORT_HEADER = "estimator,n1,n2,tp,fp,tn,fn,skips,accuracy,sensitivity,specificity\n"


@pytest.mark.parametrize(
    "length,text,message",
    [
        (50, _REPORT_HEADER.replace("tp,", "") + "gph,1,5,1,2,3,0,0.5,0.5,0.5\n", "line 1: missing column(s) tp"),
        (50, _REPORT_HEADER + "gph,1,5,1,2,3,4,0,0.4,0.2,0.6\ngph,1,6,1,2\n", "line 3: 5 fields, the header has 11"),
        (50, _REPORT_HEADER + "gph,1,5,-1,0,0,0,0,1.0,1.0,nan\n", "line 2: counts must be non-negative"),
        (50, _REPORT_HEADER + "gph,1,5,x,0,0,0,0,1.0,1.0,nan\n", "line 2: n1, n2 and the counts must be integers"),
        (50, _REPORT_HEADER + "gph,1,5,1,0,0,0,0,1.0,1.0,nan\nbogus,9,2,5,0,5,0,0,1,1,1\n", "line 3: estimator must be one of variance, gph, got 'bogus'"),
        (50, _REPORT_HEADER + "variance,9,2,5,0,5,0,0,1,1,1\n", "line 2: need 1 <= n1 < n2, got (9, 2)"),
        (50, _REPORT_HEADER + "gph,4,4,5,0,5,0,0,1,1,1\n", "line 2: need 1 <= n1 < n2, got (4, 4)"),
        (50, _REPORT_HEADER + "gph,1,5,1,0,0,0,0,1,1,nan\ngph,1,6,1,0,0,0,0,1,1," + "x" * 131073 + "\n", "line 3: field larger than field limit"),
        (50, _REPORT_HEADER + f"gph,1,{2**53 + 1},1,0,0,0,0,1,1,nan\n", "line 2: n2 and the sum of the counts must be at most 2**53"),
        (50, _REPORT_HEADER + f"variance,1,5,{2**53},0,0,0,1,1,1,nan\n", "line 2: n2 and the sum of the counts must be at most 2**53"),
        (50, _REPORT_HEADER + f"variance,1,5,{2**64},0,0,0,0,1,1,nan\n", "line 2: n2 and the sum of the counts must be at most 2**53"),
        (50, _REPORT_HEADER + "gph,1,5,1,0,0,0,0,1,1,nan\ngph,1,6,1,0,0,0,0,1,1,\udcff\n", "line 3: not UTF-8 text"),
        # "\r" alone ends a line too, as in the series CSV
        (50, (_REPORT_HEADER + "gph,1,5,1,0,0,0,0,1,1,nan\ngph,1,6,1,0,0,0,0,1,1,\udcff\n").replace("\n", "\r"),
         "line 3: not UTF-8 text"),
        # each window by its estimator's own rule at the file's length, as a study checks it
        (50, _REPORT_HEADER + "gph,1,49,1,0,0,0,0,1,1,nan\nvariance,1,60,1,0,0,0,0,1,1,nan\n",
         "line 3: n2=60 exceeds series length 50"),
        (50, _REPORT_HEADER + "variance,1,50,1,0,0,0,0,1,1,nan\ngph,1,50,1,0,0,0,0,1,1,nan\n",
         "line 3: bandwidth 50 exceeds n - 1 = 49"),
        (0, _REPORT_HEADER + "variance,1,5,1,0,0,0,0,1,1,nan\n", "line 2: n2=5 exceeds series length 0"),
    ],
    ids=[
        "missing-column", "short-row", "negative-count", "not-an-integer", "unknown-estimator", "reversed-window",
        "empty-window", "oversized-field", "n2-above-2**53", "counts-above-2**53", "count-above-2**63", "not-utf-8",
        "not-utf-8-cr", "variance-window-past-length", "gph-window-past-length", "length-0",
    ],
)
def test_rank_names_file_and_line_of_malformed_csv(tmp_path, capsys, length, text, message):
    results = tmp_path / f"results_fgn_n{length}.csv"
    results.write_text(text, encoding="utf-8", errors="surrogateescape")  # "\udcff" is the byte 0xff
    assert main(["rank", str(results)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {results}: {message}")


# Two metrics files of lengths 40 and 60: the first with reordered columns and an extra one, a
# nan sensitivity, an all-skip row and a window repeated with other skips, and the estimators
# interleaved; equal accuracy is broken by sensitivity, width, n1, estimator and then length.
_RANKED_FILES = {
    "a_n40.csv": """note,skips,n2,n1,estimator,fn,tn,fp,tp,specificity,sensitivity,accuracy
x,0,5,1,gph,2,6,2,6,0.75,0.75,0.75
x,0,5,1,variance,2,6,2,6,0.75,0.75,0.75
x,0,6,2,gph,2,6,2,6,0.75,0.75,0.75
x,0,9,1,variance,2,6,2,6,0.75,0.75,0.75
x,0,4,3,gph,4,8,0,4,1.0,0.5,0.75
x,0,3,2,variance,0,13,3,0,0.8125,nan,0.8125
x,16,8,4,gph,0,0,0,0,nan,nan,nan
x,3,5,1,variance,2,6,2,6,0.75,0.75,0.75
""",
    "b_n60.csv": """estimator,n1,n2,tp,fp,tn,fn,skips,accuracy,sensitivity,specificity
variance,1,5,6,2,6,2,1,0.750000,0.750000,0.750000
gph,1,5,6,2,6,2,0,0.750000,0.750000,0.750000
variance,2,3,0,5,11,0,0,0.687500,nan,0.687500
gph,2,4,0,0,0,0,16,nan,nan,nan
variance,1,2,7,1,7,1,0,0.875000,0.875000,0.875000
""",
}
_RANKED = """\
estimator     n   n1   n2   acc%  sens%  spec% skips
variance     60    1    2  87.50  87.50  87.50     0
variance     40    2    3  81.25    nan  81.25     0
gph          40    1    5  75.00  75.00  75.00     0
gph          60    1    5  75.00  75.00  75.00     0
variance     40    1    5  75.00  75.00  75.00     0
variance     40    1    5  75.00  75.00  75.00     3
variance     60    1    5  75.00  75.00  75.00     1
gph          40    2    6  75.00  75.00  75.00     0
variance     40    1    9  75.00  75.00  75.00     0
gph          40    3    4  75.00  50.00 100.00     0
variance     60    2    3  68.75    nan  68.75     0
gph          60    2    4    nan    nan    nan    16
gph          40    4    8    nan    nan    nan    16
"""


def test_rank_orders_ties_and_nan_metrics(tmp_path, capsys):
    for name, text in _RANKED_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(["rank", *(str(tmp_path / name) for name in _RANKED_FILES), "-k", "100"]) == 0
    assert capsys.readouterr().out == _RANKED


def test_rank_skips_blank_lines(tmp_path, capsys):
    text = _RANKED_FILES["b_n60.csv"]
    (tmp_path / "b_n60.csv").write_text(text)
    assert main(["rank", str(tmp_path / "b_n60.csv"), "-k", "100"]) == 0
    plain = capsys.readouterr().out
    # blank lines after the header, between rows and at the end
    (tmp_path / "blank_n60.csv").write_text(text.replace("\n", "\n\n", 3) + "\n")
    assert main(["rank", str(tmp_path / "blank_n60.csv"), "-k", "100"]) == 0
    assert capsys.readouterr().out == plain and plain.count("\n") == 6


def test_rank_refuses_a_header_only_file(tmp_path, capsys):
    results = tmp_path / "results_fgn_n50.csv"
    results.write_text(_REPORT_HEADER + "\n")
    assert main(["rank", str(results)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no rows found in the given results files\n"


def test_rank_rejects_results_name_without_length(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("estimator,n1,n2,tp,fp,tn,fn,skips,accuracy,sensitivity,specificity\n")
    assert main(["rank", str(results)]) == 1
    assert str(results) in capsys.readouterr().err


# Refuses every scipy import, then runs each command end to end; exits nonzero on
# a failed command or if any scipy module was loaded.
_WITHOUT_SCIPY = """
import importlib.abc, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is not a runtime dependency: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from lrdetect.cli import main

out = sys.argv[1]
series = f"{out}/subordinated-fgn_h0.8000_r000.csv"
commands = [
    ["simulate", "--scenario", "subordinated-fgn", "--hurst", "0.8", "--length", "300", "--seed", "3", "--out-dir", out],
    ["estimate", series, "--estimator", "variance", "--n1", "1", "--n2", "8"],
    ["estimate", series, "--estimator", "gph", "--trim", "1", "--bandwidth", "60", "--quantile-transform", "20", "--level-seed", "4"],
    ["study", "--seed", "1", "--scenario", "subordinated-fgn", "--lengths", "50", "--replications", "2",
     "--out-dir", f"{out}/study", "--workers", "1"],
    ["rank", f"{out}/study/results_subordinated-fgn_n50.csv", "-k", "3"],
]
for argv in commands:
    assert main(argv) == 0, argv
assert not [name for name in sys.modules if name.partition(".")[0] == "scipy"]
"""


def test_commands_run_without_scipy(tmp_path):
    import lrdetect

    src = str(Path(lrdetect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "results_subordinated-fgn_n50.csv" in done.stdout
    assert (tmp_path / "subordinated-fgn_h0.8000_r000.csv").exists()


# Runs both estimators and a one-length study in a fresh process, then prints
# which of the modules that lrdetect never needs were loaded along the way.
_IMPORT_WEIGHT = """
import sys
import lrdetect
from lrdetect import cli

out = sys.argv[1]
series = f"{out}/fgn_h0.7000_r000.csv"
assert cli.main(["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "300", "--seed", "3", "--out-dir", out]) == 0
assert cli.main(["estimate", series, "--estimator", "variance", "--n1", "1", "--n2", "8"]) == 0
assert cli.main(["estimate", series, "--estimator", "gph", "--trim", "1", "--bandwidth", "60"]) == 0
lrdetect.run_study(lrdetect.StudyConfig("fgn", (50,), 2, 1))
print(sorted({"numpy.ma", "multiprocessing", "scipy"} & set(sys.modules)))
"""


def test_commands_load_no_heavy_modules(tmp_path):
    import lrdetect

    src = str(Path(lrdetect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_WEIGHT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# Runs one command in a process whose files may grow to argv[1] bytes at most
# (no limit when negative): a write past the limit fails with EFBIG.
_UNDER_A_FILE_SIZE_LIMIT = """
import resource, signal, sys
from lrdetect.cli import main

limit = int(sys.argv[1])
if limit >= 0:
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", "fgn", "--hurst", "0.7", "--length", "5000", "--seed", "1"],
        ["study", "--seed", "1", "--scenario", "fgn", "--lengths", "50,100", "--replications", "2", "--workers", "1"],
    ],
    ids=["simulate", "study"],
)
def test_a_failed_write_leaves_every_file_whole_or_absent(tmp_path, argv):
    pytest.importorskip("resource")
    import lrdetect

    src = str(Path(lrdetect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(limit, out_dir):
        command = [sys.executable, "-c", _UNDER_A_FILE_SIZE_LIMIT, str(limit), *argv, "--out-dir", str(out_dir)]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)

    assert run(-1, tmp_path / "whole").returncode == 0
    whole = {path.name: path.read_bytes() for path in (tmp_path / "whole").iterdir()}
    largest = max(whole, key=lambda name: len(whole[name]))
    done = run(len(whole[largest]) - 1, tmp_path / "cut")
    assert done.returncode == 1
    assert done.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    # the file that failed is absent, no partial file is left, and every other file is whole
    cut = {path.name: path.read_bytes() for path in (tmp_path / "cut").iterdir()}
    assert largest not in cut and cut.items() <= whole.items()


def test_package_ships_no_test_reference():
    # the brute-force references live in tests/, and no package module imports
    # them, scipy (a test dependency) or anything else from the tests
    assert importlib.util.find_spec("lrdetect.oracles") is None
    imported = []
    for path in sorted(Path(lrdetect.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            imported += [(path.name, name) for name in names if {"scipy", "oracles", "tests"} & set(name.split("."))]
    assert imported == []


def test_package_writes_through_one_writer():
    # every output file becomes bytes in series._write_text, the one place that
    # opens a file for writing or makes a directory
    def writing_mode(arg):
        return isinstance(arg, ast.Constant) and re.fullmatch(r"[rbt]*[wax+][rwxabt+]*", str(arg.value)) is not None

    writes = []
    for path in sorted(Path(lrdetect.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writer = [fn for fn in tree.body if path.name == "series.py" and getattr(fn, "name", None) == "_write_text"]
        inside = {id(node) for fn in writer for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            modes = [*node.args[:2], *(k.value for k in node.keywords if k.arg == "mode")]
            opens = name == "open" and any(map(writing_mode, modes))
            if opens or name in {"write_text", "write_bytes", "mkdir", "makedirs"}:
                writes.append((path.name, node.lineno, name))
    assert writes == []


def test_estimate_gph_names_overflowing_ordinates(tmp_path, capsys):
    # every value is finite, but the periodogram of +-1e200 overflows the float range
    series = tmp_path / "loud.csv"
    series.write_text("value\n" + "".join(f"{(-1) ** k * 1e200!r}\n" for k in range(101)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", str(series), "--estimator", "gph", "--trim", "1", "--bandwidth", "20"])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflow" in captured.err and "frequency indices [1, 2, 3" in captured.err
    assert "must be finite" not in captured.err


def test_estimate_variance_names_overflowing_block_lengths(tmp_path, capsys):
    # every value is finite, but the block sums of squares of +-1e200 overflow
    series = tmp_path / "loud.csv"
    series.write_text("value\n" + "".join(f"{(-1) ** k * 1e200!r}\n" for k in range(64)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", str(series), "--estimator", "variance", "--n1", "1", "--n2", "10"])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflow" in captured.err and "block lengths [1, 3, 5, 7, 9]" in captured.err
    assert "must be finite and nonnegative" not in captured.err
