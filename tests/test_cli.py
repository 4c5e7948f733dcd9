import json

import numpy as np

from lrdetect import read_series_csv
from lrdetect.cli import main


def test_simulate_writes_series_and_provenance(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--scenario",
            "fgn",
            "--hurst",
            "0.7",
            "--length",
            "64",
            "--count",
            "2",
            "--seed",
            "11",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    files = sorted(tmp_path.glob("*.csv"))
    assert len(files) == 2
    series = read_series_csv(files[0])
    assert series.n == 64
    assert series.provenance["model"] == "fgn"
    assert series.provenance["hurst"] == 0.7


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


def test_estimate_missing_window_fails(tmp_path, capsys):
    series = tmp_path / "x.csv"
    series.write_text("value\n1.0\n2.0\n3.0\n")
    assert main(["estimate", str(series), "--estimator", "variance"]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_study_rejects_unknown_config_keys_before_compute(tmp_path, capsys):
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps({"lenghts": [50], "replications": 2}))
    out_dir = tmp_path / "out"
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
            str(out_dir),
            "--workers",
            "1",
        ]
    )
    assert code == 1
    assert "lenghts" in capsys.readouterr().err
    assert not out_dir.exists()


def test_rank_rejects_results_name_without_length(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("estimator,n1,n2,tp,fp,tn,fn,skips,accuracy,sensitivity,specificity\n")
    assert main(["rank", str(results)]) == 1
    assert str(results) in capsys.readouterr().err
