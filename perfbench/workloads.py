"""The benchmark's workloads and the checks on their outputs.

Each workload makes its inputs from the seed and drives lrdetect only through
``run_study``, ``write_study_outputs`` and ``lrdetect.cli.main``; the checks
recompute the expected outputs through the package's public estimators.
Functions are looked up on their modules at call time, so a tracer that
rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import shutil
import traceback
from pathlib import Path

import lrdetect
from lrdetect import cli, study
from lrdetect import (
    DegenerateBlockVariance,
    FgnParams,
    GphConfig,
    StudyConfig,
    SubordinationParams,
    VariancePlotConfig,
    ZeroPeriodogramOrdinate,
)

STUDY_LENGTHS = (50, 100, 200, 500)
STUDY_REPLICATIONS = 100  # per Hurst value: the CLI's --scale 0.1
HURST_COUNT = 12  # size of both default Hurst grids

CLI_LENGTH = 1_000_000
CLI_PSI = 100
# More Hurst values than the simulator's 16-entry embedding cache holds.
CLI_HURST_VALUES = 24
# Tiny simulations run between round trips; they push every long-series
# embedding out of the simulator's cache, so each round trip starts cold and
# the process holds no earlier embedding, as a separate CLI process would.
CACHE_FLUSH_SIMULATIONS = 64

# Label cross-check: a one-replication, single-Hurst study at the default
# lengths, and narrow GPH windows near the top frequency index of a long
# series, where the study's windowed regression is least accurate.
CROSS_CHECK_HURST = {"fgn": 0.7, "subordinated-fgn": 0.8}
LONG_LENGTH = 200_000
LONG_GPH_UPPER_ENDS = 50
LONG_GPH_UPPER_STRIDE = 97
LONG_GPH_WIDTHS = range(1, 21)


def _no_span(name):
    return contextlib.nullcontext()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class StudyWorkload:
    """One operation is ``run_study`` plus ``write_study_outputs``: fgn, default grids, 1 worker."""

    def __init__(self, seed: int, workdir: Path, digests: dict | None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.recorded_digests = digests
        self.first_digests: dict | None = None
        self.series_per_op = HURST_COUNT * STUDY_REPLICATIONS * len(STUDY_LENGTHS)
        self.calls_per_op = 1

    def config(self, lengths=STUDY_LENGTHS, replications=STUDY_REPLICATIONS) -> StudyConfig:
        return StudyConfig(
            scenario="fgn",
            lengths=lengths,
            replications=replications,
            master_seed=self.seed,
        )

    def warm_up(self) -> None:
        cfg = self.config(lengths=(STUDY_LENGTHS[0],), replications=1)
        study.write_study_outputs(cfg, study.run_study(cfg), self.workdir / "warm-up")

    def prepare(self, index: int) -> None:
        pass

    def run(self, index: int, span=_no_span) -> dict:
        cfg = self.config()
        reports = study.run_study(cfg)
        paths = study.write_study_outputs(cfg, reports, self.workdir / f"op{index}")
        return {"reports": reports, "paths": paths}

    def check(self, result: dict) -> tuple[int, list[str], dict]:
        """Failed calls, problems found and the CSV digests of one operation."""
        csvs = sorted(p for p in result["paths"] if p.suffix == ".csv")
        digests = {p.name: sha256_file(p) for p in csvs}
        problems = []
        if self.recorded_digests is not None:
            if digests != self.recorded_digests:
                problems.append("metrics CSV digests differ from the recorded ones")
        else:
            problems.extend(_tally_problems(csvs, HURST_COUNT * STUDY_REPLICATIONS))
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            problems.append("metrics CSVs differ between operations of one run")
        shutil.rmtree(result["paths"][0].parent)
        return (1 if problems else 0), problems, digests

    def layer_counts(self, result: dict) -> dict:
        reports = result["reports"]
        labels = sum(r.total + r.skips for r in reports)
        skips = sum(r.skips for r in reports)
        return {"study.labels": labels, "study.skip_share": skips / labels}


def _tally_problems(csvs, series_per_length: int) -> list[str]:
    """Each row tallies every series once, and its accuracy matches its counts."""
    problems = []
    for path in csvs:
        with path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                tp, fp, tn, fn, skips = (int(row[k]) for k in ("tp", "fp", "tn", "fn", "skips"))
                total = tp + fp + tn + fn
                if total + skips != series_per_length:
                    problems.append(f"{path.name}: row {row['n1']},{row['n2']} tallies {total + skips} series")
                elif total and row["accuracy"] != f"{(tp + tn) / total:.6f}":
                    problems.append(f"{path.name}: row {row['n1']},{row['n2']} accuracy disagrees with its counts")
    return problems[:5]


class CliWorkload:
    """One operation simulates a 10^6 subordinated series and estimates it twice, via the CLI."""

    ESTIMATES = (
        ("--estimator", "variance", "--n1", "1", "--n2", "60"),
        ("--estimator", "gph", "--trim", "1", "--bandwidth", "1000"),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        rng = random.Random(seed)
        self.hursts = [round(h, 4) for h in rng.sample([0.55 + 0.0025 * i for i in range(160)], CLI_HURST_VALUES)]
        self.level_seed = rng.randrange(1 << 32)
        self.series_per_op = 1
        self.calls_per_op = 1 + len(self.ESTIMATES)

    def warm_up(self) -> None:
        self._round_trip(0.7, 1000, self.workdir / "warm-up", _no_span)

    def prepare(self, index: int) -> None:
        for i in range(CACHE_FLUSH_SIMULATIONS):
            lrdetect.simulate_fgn(FgnParams(hurst=0.5, n=2 + i), 0)

    def run(self, index: int, span=_no_span) -> dict:
        hurst = self.hursts[index % len(self.hursts)]
        return self._round_trip(hurst, CLI_LENGTH, self.workdir / f"op{index}", span)

    def _round_trip(self, hurst: float, length: int, out_dir: Path, span) -> dict:
        simulate = (
            "simulate", "--scenario", "subordinated-fgn", "--hurst", str(hurst),
            "--length", str(length), "--count", "1", "--seed", str(self.seed), "--out-dir", str(out_dir),
        )
        calls = [_call_main(simulate, span)]
        # The name the simulate command gives its one series.
        path = out_dir / f"subordinated-fgn_h{hurst:.4f}_r000.csv"
        for estimate in self.ESTIMATES:
            argv = ("estimate", str(path), "--quantile-transform", str(CLI_PSI),
                    "--level-seed", str(self.level_seed), *estimate)
            calls.append(_call_main(argv, span))
        return {"hurst": hurst, "path": path, "calls": calls}

    def expected_stdout(self, hurst: float, path: Path) -> list[str]:
        """What each call should print, computed on the in-memory series."""
        seed = lrdetect.replication_seed(self.seed, "subordinated-fgn", 0, 0)
        heavy = lrdetect.subordinate(
            lrdetect.simulate_fgn(FgnParams(hurst=hurst, n=CLI_LENGTH), seed), SubordinationParams(1.0)
        )
        levels = lrdetect.draw_levels(CLI_PSI, self.level_seed)
        series = lrdetect.transform_series(heavy, lrdetect.resolve_quantiles(heavy, levels))
        var = lrdetect.variance_plot_slope(series, VariancePlotConfig(n1=1, n2=60))
        gph = lrdetect.gph_estimate(series, GphConfig(trim=1, bandwidth=1000))
        return [
            f"{path}\n",
            f"estimator variance window 1 60\nslope {var.slope:.6f}\nlabel {lrdetect.classify_lrd_variance(var)}\n",
            f"estimator gph window 1 1000\nd {gph.slope:.6f}\nlabel {lrdetect.classify_lrd_gph(gph)}\n",
        ]

    def check(self, result: dict) -> tuple[int, list[str], dict]:
        path = result["path"]
        expected = self.expected_stdout(result["hurst"], path)
        failed, problems = 0, []
        for (argv, code, stdout, stderr), want in zip(result["calls"], expected):
            if code != 0 or stdout != want:
                failed += 1
                problems.append(f"{argv[0]} exit {code}: got {stdout!r}, want {want!r}; {stderr.strip()[-300:]}")
        digests = {path.name: sha256_file(path)} if path.exists() else {}
        shutil.rmtree(path.parent, ignore_errors=True)
        return failed, problems, digests

    def layer_counts(self, result: dict) -> dict:
        return {}


def _call_main(argv, span) -> tuple:
    """Run ``lrdetect.cli.main`` in this process; returns (argv, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with span("cli.main"):
                code = cli.main(list(argv))
        except Exception:  # an escaped exception is a failed call, recorded with its traceback
            code = None
            err.write(traceback.format_exc())
    return argv, code, out.getvalue(), err.getvalue()


def _labels_from_reports(reports) -> dict:
    """Per (estimator, n, n1, n2): the label a one-series study assigned."""
    labels = {}
    for r in reports:
        label = "skip" if r.skips else ("LRD" if r.tp or r.fp else "non-LRD")
        labels[(r.estimator, r.series_length, r.n1, r.n2)] = label
    return labels


def _long_gph_windows(n: int) -> tuple[tuple[int, int], ...]:
    uppers = [n - 1 - LONG_GPH_UPPER_STRIDE * i for i in range(LONG_GPH_UPPER_ENDS)]
    return tuple((w - width, w) for w in uppers for width in LONG_GPH_WIDTHS)


def _study_series(cfg: StudyConfig, n: int):
    """The series a one-replication, single-Hurst study evaluates at length n."""
    seed = lrdetect.replication_seed(cfg.master_seed, cfg.scenario, 0, 0)
    path = lrdetect.simulate_fgn(FgnParams(hurst=cfg.resolved_hurst_grid()[0], n=n), seed)
    if cfg.scenario == "fgn":
        return path
    heavy = lrdetect.subordinate(path, SubordinationParams(cfg.alpha))
    levels = lrdetect.draw_levels(cfg.psi, cfg.resolved_level_seed())
    return lrdetect.transform_series(heavy, lrdetect.resolve_quantiles(heavy, levels))


def _public_label(compute, classify) -> str:
    try:
        return classify(compute())
    except (DegenerateBlockVariance, ZeroPeriodogramOrdinate):
        return "skip"


def label_cross_check(scenario: str, seed: int) -> dict:
    """Count labels where the study disagrees with variance_plot_slope / gph_from_ordinates.

    Returns {length: [checked, mismatches]} for the default lengths and for
    narrow GPH windows near the top frequency index at LONG_LENGTH.
    """
    hurst = (CROSS_CHECK_HURST[scenario],)
    configs = [
        StudyConfig(scenario, STUDY_LENGTHS, 1, seed, hurst_grid=hurst),
        StudyConfig(
            scenario, (LONG_LENGTH,), 1, seed, hurst_grid=hurst,
            variance_cutoffs=((1, 60),), gph_cutoffs=_long_gph_windows(LONG_LENGTH),
        ),
    ]
    counts = {}
    for cfg in configs:
        labels = _labels_from_reports(study.run_study(cfg))
        for n in cfg.lengths:
            series = _study_series(cfg, n)
            ordinates = lrdetect.full_ordinates(series)
            var_grid, gph_grid = cfg.grids_for(n)
            checked = mismatches = 0
            for n1, n2 in var_grid.tolist():
                got = _public_label(
                    lambda: lrdetect.variance_plot_slope(series, VariancePlotConfig(n1=n1, n2=n2)),
                    lrdetect.classify_lrd_variance,
                )
                checked += 1
                mismatches += got != labels[("variance", n, n1, n2)]
            for trim, bandwidth in gph_grid.tolist():
                got = _public_label(
                    lambda: lrdetect.gph_from_ordinates(ordinates, n, GphConfig(trim=trim, bandwidth=bandwidth)),
                    lrdetect.classify_lrd_gph,
                )
                checked += 1
                mismatches += got != labels[("gph", n, trim, bandwidth)]
            counts[n] = [checked, mismatches]
    return counts
