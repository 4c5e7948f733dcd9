"""Command-line interface: simulate paths, estimate single series, run and rank studies."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, LrdetectError, echo
from .excursion import MAX_PSI, QuantileMeasure, draw_levels, fit_series
from .fgn import FgnParams, SubordinationParams, simulate_fgn, subordinate
from .gph import GphConfig
from .series import _read_text, _write_json, read_series_csv, write_series_csv
from .study import (
    ESTIMATORS,
    SCENARIOS,
    StudyConfig,
    StudyReports,
    rank_cutoffs,
    read_report_csv,
    replication_seed,
    run_study,
    write_study_outputs,
)
from .varplot import VariancePlotConfig


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {echo.repr(args.seed)}")
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {echo.repr(args.count)}")
    params = FgnParams(hurst=args.hurst, n=args.length, sigma2=args.sigma2)
    # provenance sidecar: how each CSV's series was made; the seed is added per file
    record = {"model": args.scenario, "hurst": params.hurst, "sigma2": params.sigma2, "n": params.n}
    subordination = SubordinationParams(args.alpha)  # checked in every scenario, before any file
    subordinated = args.scenario == "subordinated-fgn"
    if subordinated:
        record["alpha"] = subordination.alpha
    out_dir = Path(args.out_dir)
    for rep in range(args.count):
        seed = replication_seed(args.seed, args.scenario, 0, rep)
        series = simulate_fgn(params, seed)
        if subordinated:
            series = subordinate(series, subordination)
        path = write_series_csv(series, out_dir / f"{args.scenario}_h{args.hurst:.4f}_r{rep:03d}.csv")
        _write_json(path.with_suffix(".json"), {**record, "seed": seed})
        print(path)
    return 0


def _estimate_config(args) -> tuple[VariancePlotConfig | GphConfig, QuantileMeasure | None]:
    """The window from the flags of the estimator's one window form, and the
    quantile levels when the series is to be transformed.  A flag the estimate
    would ignore, or one out of range, is an error raised before the series is read."""
    scaled = args.delta is not None or args.m is not None
    names = ("trim", "bandwidth") if args.estimator == "gph" else ("delta", "m") if scaled else ("n1", "n2")
    given = {name for name in ("n1", "n2", "delta", "m", "trim", "bandwidth") if getattr(args, name) is not None}
    reads = " and ".join(f"--{name}" for name in names)
    if given - set(names):
        unread = ", ".join(f"--{name}" for name in sorted(given - set(names)))
        raise ConfigError(f"{unread} would be ignored: the {args.estimator} estimator reads {reads}")
    if not given >= set(names):
        raise ConfigError(f"{args.estimator} estimator needs {reads}")
    if (args.quantile_transform is None) != (args.level_seed is None):
        raise ConfigError("give --quantile-transform and --level-seed together or neither")
    levels = None
    if args.quantile_transform is not None:
        if not 1 <= args.quantile_transform <= MAX_PSI:
            raise ConfigError(
                f"--quantile-transform: psi must lie in [1, {MAX_PSI}], got {echo.repr(args.quantile_transform)}"
            )
        try:
            levels = draw_levels(args.quantile_transform, args.level_seed)
        except ValueError as exc:  # the level seed lies outside [0, 2**64)
            raise ConfigError(f"--level-seed: {exc}") from None
    window = {name: getattr(args, name) for name in names}
    return (GphConfig(**window) if args.estimator == "gph" else VariancePlotConfig(**window)), levels


def _cmd_estimate(args) -> int:
    config, levels = _estimate_config(args)
    (low, high), fit, label = fit_series(read_series_csv(args.input), config, levels)
    print(f"estimator {args.estimator} window {low} {high}")
    print(f"{'d' if args.estimator == 'gph' else 'slope'} {fit.slope:.6f}")
    print(f"label {label}")
    return 0


# Keys a study JSON config may hold; anything else is a typo, not a default.
STUDY_CONFIG_KEYS = frozenset([field.name for field in dataclasses.fields(StudyConfig)] + ["out_dir"])


def _comma_list(text: str) -> list:
    """--lengths as a list: decimal tokens become ints and any other token stays
    a string, for StudyConfig to refuse by name; it never raises."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    return [int(tok) if tok.isdecimal() else tok for tok in tokens]


def _study_config(args) -> tuple[StudyConfig, Path]:
    """Merge the JSON config with the flags (flags win).  StudyConfig receives only
    the values given there, plus the CLI's default lengths."""
    file_cfg = {}
    if args.config is not None:
        text = _read_text(args.config)
        try:
            file_cfg = json.loads(text)
        except ValueError as exc:  # not JSON, or an integer past Python's digit limit
            raise ConfigError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: expected a JSON object of study settings")
        unknown = sorted(set(file_cfg) - STUDY_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"{args.config}: unknown study setting(s): {', '.join(unknown)}")
    # the study flags' argparse destinations are config keys
    flags = {k: v for k, v in vars(args).items() if k in STUDY_CONFIG_KEYS and v is not None}
    settings = {**file_cfg, **flags}
    required = {
        "seed": "master_seed",
        "replications": "replications",
        "scenario": "scenario",
        "out-dir": "out_dir",
        "workers": "workers",
    }
    missing = [flag for flag, key in required.items() if settings.get(key) is None]
    if missing:
        raise ConfigError(f"missing required study settings: {', '.join(missing)}")
    out_dir = settings.pop("out_dir")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a path, got {echo.repr(out_dir)}")
    settings.setdefault("lengths", (50, 100, 200, 500))
    return StudyConfig(**settings), Path(out_dir)


def _cmd_study(args) -> int:
    cfg, out_dir = _study_config(args)
    reports = run_study(cfg)
    paths = write_study_outputs(cfg, reports, out_dir)
    for path in paths:
        print(path)
    return 0


def _format_percent(value: float) -> str:
    return "   nan" if math.isnan(value) else f"{100 * value:6.2f}"


def _cmd_rank(args) -> int:
    if args.k < 1:
        raise ConfigError(f"-k must be >= 1, got {echo.repr(args.k)}")
    # a file given twice, by any spelling, would rank each of its rows twice
    seen = {}
    for path in args.results:
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ConfigError(f"results file {echo.repr(path)} repeats {echo.repr(seen[resolved])}")
        seen[resolved] = path
    table = StudyReports(block for path in args.results for block in read_report_csv(path).blocks)
    if len(table) == 0:
        raise ConfigError("no rows found in the given results files")
    top = rank_cutoffs(table, args.k)
    print(f"{'estimator':<9} {'n':>5} {'n1':>4} {'n2':>4} {'acc%':>6} {'sens%':>6} {'spec%':>6} {'skips':>5}")
    for r in top:
        print(
            f"{r.estimator:<9} {r.series_length:>5} {r.n1:>4} {r.n2:>4} "
            f"{_format_percent(r.accuracy)} {_format_percent(r.sensitivity)} "
            f"{_format_percent(r.specificity)} {r.skips:>5}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrdetect",
        description="Detect long-range dependence and benchmark the detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="emit raw simulated series as CSV files")
    p_sim.add_argument("--scenario", choices=SCENARIOS, required=True)
    p_sim.add_argument("--hurst", type=float, required=True)
    p_sim.add_argument("--length", type=int, required=True)
    p_sim.add_argument("--count", type=int, default=1)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--sigma2", type=float, default=1.0)
    p_sim.add_argument("--alpha", type=float, default=1.0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="classify one CSV series with one estimator")
    p_est.add_argument("input")
    p_est.add_argument("--estimator", choices=ESTIMATORS, required=True)
    p_est.add_argument("--n1", type=int)
    p_est.add_argument("--n2", type=int)
    p_est.add_argument("--delta", type=float)
    p_est.add_argument("--m", type=float)
    p_est.add_argument("--trim", type=int)
    p_est.add_argument("--bandwidth", type=int)
    p_est.add_argument(
        "--quantile-transform",
        type=int,
        metavar="PSI",
        help="apply the excursion-count transform with PSI quantile levels first",
    )
    p_est.add_argument("--level-seed", type=int)
    p_est.set_defaults(func=_cmd_estimate)

    p_study = sub.add_parser("study", help="run the Monte Carlo classification study")
    p_study.add_argument("--config", help="JSON file with study settings")
    p_study.add_argument("--seed", type=int, dest="master_seed")
    p_study.add_argument("--scenario", choices=SCENARIOS)
    p_study.add_argument("--out-dir")
    p_study.add_argument("--workers", type=int)
    p_study.add_argument("--lengths", type=_comma_list, help="comma-separated series lengths")
    p_study.add_argument("--replications", type=int)
    p_study.add_argument("--psi", type=int)
    p_study.add_argument("--alpha", type=float)
    p_study.add_argument("--level-seed", type=int)
    p_study.set_defaults(func=_cmd_study)

    p_rank = sub.add_parser("rank", help="print the top-k cutoffs from study CSVs")
    p_rank.add_argument("results", nargs="+")
    p_rank.add_argument("-k", type=int, default=5)
    p_rank.set_defaults(func=_cmd_rank)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LrdetectError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
