"""Command-line interface: simulate paths, estimate single series, run and rank studies."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, LrdetectError
from .excursion import draw_levels, resolve_quantiles, transform_series
from .fgn import FgnParams, SubordinationParams, simulate_fgn, subordinate
from .gph import GphConfig, classify_lrd_gph, gph_estimate
from .series import read_series_csv, write_series_csv
from .study import (
    StudyConfig,
    rank_cutoffs,
    read_report_csv,
    replication_seed,
    run_study,
    write_study_outputs,
)
from .varplot import (
    VariancePlotConfig,
    classify_lrd_variance,
    variance_plot_slope,
)


def _cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rep in range(args.count):
        seed = replication_seed(args.seed, args.scenario, 0, rep)
        series = simulate_fgn(FgnParams(hurst=args.hurst, n=args.length, sigma2=args.sigma2), seed)
        if args.scenario == "subordinated-fgn":
            series = subordinate(series, SubordinationParams(args.alpha))
        name = f"{args.scenario}_h{args.hurst:.4f}_r{rep:03d}.csv"
        path = write_series_csv(series, out_dir / name)
        print(path)
    return 0


def _estimator_config(args):
    if args.estimator == "variance":
        if args.delta is not None or args.m is not None:
            return VariancePlotConfig(delta=args.delta, m=args.m)
        if args.n1 is None or args.n2 is None:
            raise ConfigError("variance estimator needs --n1/--n2 or --delta/--m")
        return VariancePlotConfig(n1=args.n1, n2=args.n2)
    if args.trim is None or args.bandwidth is None:
        raise ConfigError("gph estimator needs --trim and --bandwidth")
    return GphConfig(trim=args.trim, bandwidth=args.bandwidth)


def _cmd_estimate(args) -> int:
    series = read_series_csv(args.input)
    if args.quantile_transform is not None:
        if args.level_seed is None:
            raise ConfigError("--quantile-transform requires --level-seed")
        levels = draw_levels(args.quantile_transform, args.level_seed)
        series = transform_series(series, resolve_quantiles(series, levels))
    cfg = _estimator_config(args)
    if isinstance(cfg, VariancePlotConfig):
        fit = variance_plot_slope(series, cfg)
        n1, n2 = cfg.resolve(series.n)
        print(f"estimator variance window {n1} {n2}")
        print(f"slope {fit.slope:.6f}")
        print(f"label {classify_lrd_variance(fit)}")
    else:
        fit = gph_estimate(series, cfg)
        print(f"estimator gph window {cfg.trim} {cfg.bandwidth}")
        print(f"d {fit.slope:.6f}")
        print(f"label {classify_lrd_gph(fit)}")
    return 0


# Keys a study JSON config may hold; anything else is a typo, not a default.
STUDY_CONFIG_KEYS = frozenset(
    [field.name for field in dataclasses.fields(StudyConfig)] + ["seed", "scale", "out_dir"]
)


def _study_config(args) -> tuple[StudyConfig, Path]:
    """Merge the JSON config with the flags (flags win).  StudyConfig receives only
    the values given there, plus the CLI's own defaults for replications and lengths."""
    file_cfg = {}
    if args.config is not None:
        file_cfg = json.loads(Path(args.config).read_text())
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: expected a JSON object of study settings")
        unknown = sorted(set(file_cfg) - STUDY_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"{args.config}: unknown study setting(s): {', '.join(unknown)}")
        if "seed" in file_cfg:
            file_cfg.setdefault("master_seed", file_cfg.pop("seed"))
    # the study flags' argparse destinations are config keys
    flags = {k: v for k, v in vars(args).items() if k in STUDY_CONFIG_KEYS and v is not None}
    if "seed" in flags:
        flags["master_seed"] = flags.pop("seed")
    settings = {**file_cfg, **flags}
    required = (
        ("seed", "master_seed"),
        ("scale", "scale"),
        ("scenario", "scenario"),
        ("out-dir", "out_dir"),
        ("workers", "workers"),
    )
    missing = [flag for flag, key in required if settings.get(key) is None]
    if missing:
        raise ConfigError(f"missing required study settings: {', '.join(missing)}")
    scale = settings.pop("scale")
    if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not 0 < scale < math.inf:
        raise ConfigError(f"scale must be a positive number, got {scale!r}")
    out_dir = settings.pop("out_dir")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a path, got {out_dir!r}")
    settings.setdefault("replications", round(1000 * scale))
    lengths = settings.setdefault("lengths", (50, 100, 200, 500))
    if isinstance(lengths, str):
        tokens = [tok.strip() for tok in lengths.split(",") if tok.strip()]
        settings["lengths"] = [int(tok) if tok.isdecimal() else tok for tok in tokens]
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
    reports = []
    for path in args.results:
        reports.extend(read_report_csv(path))
    if not reports:
        raise ConfigError("no rows found in the given results files")
    top = rank_cutoffs(reports, args.k)
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
    p_sim.add_argument("--scenario", choices=("fgn", "subordinated-fgn"), required=True)
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
    p_est.add_argument("--estimator", choices=("variance", "gph"), required=True)
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
    p_study.add_argument("--seed", type=int)
    p_study.add_argument("--scale", type=float, help="fraction of 1000 replications per Hurst value")
    p_study.add_argument("--scenario", choices=("fgn", "subordinated-fgn"))
    p_study.add_argument("--out-dir")
    p_study.add_argument("--workers", type=int)
    p_study.add_argument("--lengths", help="comma-separated series lengths")
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
