import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lrdetect.gph
from lrdetect import cli, read_series_csv, replication_seed
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


def test_simulate_rejects_bad_alpha_before_writing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["simulate", "--scenario", "subordinated-fgn", "--hurst", "0.7", "--length", "16"]
    assert main([*argv, "--seed", "3", "--alpha", "0", "--out-dir", str(out_dir)]) == 1
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
            "--scale",
            "0.004",
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
    assert recorded["replications"] == 4  # explicit config wins over scale
    assert recorded["variance_cutoffs"]["60"] == [[1, 5], [2, 9]]
    capsys.readouterr()
    assert main(["rank", str(results), "-k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + top 3
    assert lines[0].split()[0] == "estimator"


def test_study_replications_make_scale_optional(tmp_path):
    out_dir = tmp_path / "o"
    argv = ["study", "--seed", "1", "--scenario", "fgn", "--out-dir", str(out_dir), "--workers", "1"]
    assert main([*argv, "--replications", "2", "--lengths", "50"]) == 0
    assert json.loads((out_dir / "manifest_fgn.json").read_text())["replications"] == 2


def test_study_missing_required_settings(tmp_path, capsys):
    code = main(["study", "--seed", "1", "--scale", "0.1", "--workers", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "scenario" in err and "out-dir" in err


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
            "--scale",
            "0.01",
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
    required = {"seed": "1", "scale": "0.001", "scenario": "fgn", "workers": "1"}
    for key, value in {**required, "out_dir": str(out_dir)}.items():
        if key not in cfg:
            argv += [f"--{key.replace('_', '-')}", value]
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
    ({"seed": -1}, "master_seed"),
    ({"seed": 1, "master_seed": 2}, "seed or master_seed"),
    ({"scale": "0.1"}, "scale"),
    ({"scale": "0.1", "replications": 2}, "scale"),
    ({"scale": 0.0004}, "scale"),  # rounds to 0 replications
    ({"out_dir": 3}, "out_dir"),
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
        ('{"lengths": [50], }', ["--scale", "0.1"], "{config}: not valid JSON: "),
        (None, ["--scale", "0.0004"], "scale must give at least 1 replication"),
    ],
    ids=["malformed-json", "scale-rounds-to-zero"],
)
def test_study_input_errors_name_what_was_given(tmp_path, capsys, monkeypatch, config, flags, message):
    def no_compute(cfg):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_study", no_compute)
    out_dir = tmp_path / "out"
    argv = ["study", "--seed", "1", "--scenario", "fgn", "--workers", "1", "--out-dir", str(out_dir), *flags]
    if config is not None:
        path = tmp_path / "bad.json"
        path.write_text(config)
        argv += ["--config", str(path)]
        message = message.format(config=path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
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
    argv = ["study", "--seed", "1", "--scale", "0.001", "--workers", "1", "--out-dir", str(out_dir)]
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
    "text,message",
    [
        (_REPORT_HEADER.replace("tp,", "") + "gph,1,5,1,2,3,0,0.5,0.5,0.5\n", "line 1: missing column(s) tp"),
        (_REPORT_HEADER + "gph,1,5,1,2,3,4,0,0.4,0.2,0.6\ngph,1,6,1,2\n", "line 3: 5 fields, the header has 11"),
        (_REPORT_HEADER + "gph,1,5,-1,0,0,0,0,1.0,1.0,nan\n", "line 2: counts must be non-negative"),
        (_REPORT_HEADER + "gph,1,5,x,0,0,0,0,1.0,1.0,nan\n", "line 2: n1, n2 and the counts must be integers"),
        (_REPORT_HEADER + "gph,1,5,1,0,0,0,0,1.0,1.0,nan\nbogus,9,2,5,0,5,0,0,1,1,1\n", "line 3: estimator must be one of variance, gph, got 'bogus'"),
        (_REPORT_HEADER + "variance,9,2,5,0,5,0,0,1,1,1\n", "line 2: need 1 <= n1 < n2, got (9, 2)"),
        (_REPORT_HEADER + "gph,4,4,5,0,5,0,0,1,1,1\n", "line 2: need 1 <= n1 < n2, got (4, 4)"),
    ],
    ids=["missing-column", "short-row", "negative-count", "not-an-integer", "unknown-estimator", "reversed-window", "empty-window"],
)
def test_rank_names_file_and_line_of_malformed_csv(tmp_path, capsys, text, message):
    results = tmp_path / "results_fgn_n50.csv"
    results.write_text(text)
    assert main(["rank", str(results)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {results}: {message}")


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
