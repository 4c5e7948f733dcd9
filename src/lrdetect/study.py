"""Monte Carlo classification benchmark over cutoff grids, with ranked metric tables.

One study simulates ``replications`` series per Hurst value, classifies every
series with both estimators at every configured cutoff pair, and tallies
confusion counts against the known ground truth.  Everything downstream of
the resolved configuration is deterministic, including across worker counts.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
from collections.abc import Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .excursion import QuantileMeasure, draw_levels, resolve_quantiles, transform_series
from .fgn import FgnParams, simulate_fgn_paths
from .gph import GPH_LRD_THRESHOLD, gph_regressors, ordinate_rows
from .series import TimeSeries
from .varplot import VARIANCE_LRD_THRESHOLD, block_variance_rows

SCENARIOS = ("fgn", "subordinated-fgn")

_SCENARIO_CODE = {"fgn": 0, "subordinated-fgn": 1}
_LEVELS_STREAM = 2  # entropy tag separating the level panel from path seeds

# Float64 elements that bound one cell's normals (rows x 2n), and one block
# of window weights (segments x windows) and of slopes (rows x windows).
_CHUNK = 1 << 16

# Largest accepted worker count; the pool itself never exceeds the CPU count.
MAX_WORKERS = 64

# Metric CSV columns, fixed so study outputs are machine-comparable.
CSV_COLUMNS = (
    "estimator",
    "n1",
    "n2",
    "tp",
    "fp",
    "tn",
    "fn",
    "skips",
    "accuracy",
    "sensitivity",
    "specificity",
)


def ground_truth_label(scenario: str, hurst: float) -> str:
    """True memory class of a simulated series.

    Plain fGN is long-range dependent iff H > 1/2; the subordinated process
    is long-range dependent (in the excursion-indicator sense) iff H >= 3/4.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    if not 0.0 < hurst < 1.0:
        raise ConfigError(f"hurst must lie in (0, 1), got {hurst}")
    if scenario == "fgn":
        return "LRD" if hurst > 0.5 else "non-LRD"
    return "LRD" if hurst >= 0.75 else "non-LRD"


def default_hurst_grid(scenario: str) -> tuple[float, ...]:
    """Twelve equidistant Hurst values straddling the scenario's threshold.

    The grids span [0.3, 0.7] (fgn) and [0.6, 0.9] (subordinated-fgn); with
    an even count symmetric around the midpoint, the threshold itself never
    appears, so every grid point has an unambiguous ground truth.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    if scenario == "fgn":
        return tuple(np.linspace(0.3, 0.7, 12))
    return tuple(np.linspace(0.6, 0.9, 12))


def default_variance_grid(n: int) -> list[tuple[int, int]]:
    """All windows 1 <= n1 < n2 <= min(60, n); larger windows rank poorly."""
    top = min(60, n)
    return [(a, b) for a in range(1, top) for b in range(a + 1, top + 1)]


def default_gph_grid(n: int, points: int = 50) -> list[tuple[int, int]]:
    """Frequency windows 1 <= l < w <= n - 1, subsampled on a stride so the
    grid stays near ``points`` values per endpoint."""
    stride = max(1, (n - 1) // points)
    marks = list(range(1, n, stride))
    return [(marks[i], marks[j]) for i in range(len(marks)) for j in range(i + 1, len(marks))]


def replication_seed(master_seed: int, scenario: str, h_index: int, rep_index: int) -> int:
    """Path seed hashed from (master seed, scenario, Hurst index, replication).

    Hashing instead of streaming keeps existing draws fixed when a grid is
    resized or extended.
    """
    entropy = (int(master_seed), _SCENARIO_CODE[scenario], int(h_index), int(rep_index))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _derived_level_seed(master_seed: int) -> int:
    entropy = (int(master_seed), _LEVELS_STREAM)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _items(name: str, value, item) -> tuple:
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(item(name, v) for v in value)


def _pair(name: str, value) -> tuple[int, int]:
    pair = _items(name, value, _integer)
    if len(pair) != 2:
        raise ConfigError(f"{name} entries must be [low, high] pairs, got {value!r}")
    return pair


@dataclass(frozen=True)
class StudyConfig:
    """Complete description of one study run; a fixed config fixes the output."""

    scenario: str
    lengths: tuple[int, ...]
    replications: int
    master_seed: int
    hurst_grid: tuple[float, ...] | None = None
    variance_cutoffs: tuple[tuple[int, int], ...] | None = None
    gph_cutoffs: tuple[tuple[int, int], ...] | None = None
    psi: int = 100
    level_seed: int | None = None
    alpha: float = 1.0
    workers: int = 1

    def __post_init__(self):
        """Coerce each field to its declared type.  A value of another type
        raises ConfigError naming the field; no float is truncated to an int."""
        fix = partial(object.__setattr__, self)
        fix("lengths", _items("lengths", self.lengths, _integer))
        for name in ("replications", "master_seed", "psi", "workers"):
            fix(name, _integer(name, getattr(self, name)))
        fix("alpha", _real("alpha", self.alpha))
        if self.level_seed is not None:
            fix("level_seed", _integer("level_seed", self.level_seed))
        if self.hurst_grid is not None:
            fix("hurst_grid", _items("hurst_grid", self.hurst_grid, _real))
        for name in ("variance_cutoffs", "gph_cutoffs"):
            if getattr(self, name) is not None:
                fix(name, _items(name, getattr(self, name), _pair))

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not self.lengths or any(n < 4 for n in self.lengths):
            raise ConfigError("lengths must be a nonempty list of integers >= 4")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.level_seed is not None and not 0 <= self.level_seed < 1 << 64:
            raise ConfigError(f"level_seed must lie in [0, 2**64), got {self.level_seed}")
        if self.psi < 1:
            raise ConfigError("psi must be >= 1")
        if not self.alpha > 0:
            raise ConfigError("alpha must be positive")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must lie in [1, {MAX_WORKERS}], got {self.workers}")
        grid = self.hurst_grid if self.hurst_grid is not None else default_hurst_grid(self.scenario)
        if not grid or any(not 0.0 < h < 1.0 for h in grid):
            raise ConfigError("hurst_grid must be nonempty with values strictly in (0, 1)")
        for name in ("variance_cutoffs", "gph_cutoffs"):
            pairs = getattr(self, name)
            if pairs is not None and len(pairs) == 0:
                raise ConfigError(f"{name} must be nonempty when given")
        for n in self.lengths:
            if self.variance_cutoffs is not None:
                for a, b in self.variance_cutoffs:
                    if not 1 <= a < b <= n:
                        raise ConfigError(
                            f"variance cutoff ({a}, {b}) invalid for length {n}"
                        )
            if self.gph_cutoffs is not None:
                for a, b in self.gph_cutoffs:
                    if not 1 <= a < b <= n - 1:
                        raise ConfigError(f"gph cutoff ({a}, {b}) invalid for length {n}")

    def resolved_level_seed(self) -> int:
        if self.level_seed is not None:
            return int(self.level_seed)
        return _derived_level_seed(self.master_seed)

    def resolved_hurst_grid(self) -> tuple[float, ...]:
        if self.hurst_grid is not None:
            return self.hurst_grid
        return default_hurst_grid(self.scenario)

    def grids_for(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        var = self.variance_cutoffs or default_variance_grid(n)
        gph = self.gph_cutoffs or default_gph_grid(n)
        return (
            np.asarray(var, dtype=np.int64).reshape(-1, 2),
            np.asarray(gph, dtype=np.int64).reshape(-1, 2),
        )

    def manifest_dict(self) -> dict:
        grids = {str(n): self.grids_for(n) for n in self.lengths}
        return {
            "scenario": self.scenario,
            "lengths": list(self.lengths),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "hurst_grid": [float(h) for h in self.resolved_hurst_grid()],
            "psi": self.psi,
            "level_seed": self.resolved_level_seed(),
            "alpha": self.alpha,
            "workers": self.workers,
            "variance_cutoffs": {n: var.tolist() for n, (var, _) in grids.items()},
            "gph_cutoffs": {n: gph.tolist() for n, (_, gph) in grids.items()},
        }


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts and derived metrics for one (estimator, cutoff, length)."""

    estimator: str
    n1: int
    n2: int
    series_length: int
    tp: int
    fp: int
    tn: int
    fn: int
    skips: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else math.nan

    @property
    def sensitivity(self) -> float:
        positives = self.tp + self.fn
        return self.tp / positives if positives else math.nan

    @property
    def specificity(self) -> float:
        negatives = self.tn + self.fp
        return self.tn / negatives if negatives else math.nan


class WindowGrid:
    """Least-squares slopes of many rows over many windows of one regressor.

    ``windows`` holds inclusive (start, stop) positions into ``xs``, at least
    two positions each.  All
    window endpoints cut the regressor into segments; each row reduces to
    per-segment sums Y_s = sum y_j and C_s = sum (x_j - a_s) y_j, where the
    anchor a_s is the segment's first regressor value.  Window w's slope is

        (sum_s C_s + sum_s (a_s - xbar_w - r_w) Y_s) / Sxx_w

    over its segments.  a_s - xbar_w subtracts two values inside the window's
    range, so it loses no digits, and the rounding residual r_w of the window
    mean xbar_w is kept as a separate term, so the weights sum to zero.  This
    matches ``ols_slope`` to ~1e-12 relative even for narrow windows far from
    the origin, where differences of prefix sums cancel catastrophically.

    Only per-window scalars are stored; the (segments x windows) membership
    and weight blocks, at most ``_CHUNK`` elements each, are rebuilt on use.
    """

    def __init__(self, xs, windows):
        xs = np.asarray(xs, dtype=np.float64)
        windows = np.asarray(windows, dtype=np.int64).reshape(-1, 2)
        starts, stops = windows[:, 0], windows[:, 1] + 1
        cuts = np.unique(np.concatenate([starts, stops]))
        sizes = np.diff(cuts)
        self.size = windows.shape[0]
        self._span = slice(int(cuts[0]), int(cuts[-1]))
        self._cuts = cuts[:-1] - cuts[0]
        self._first = np.searchsorted(cuts, starts)
        self._stop = np.searchsorted(cuts, stops)
        self._anchors = xs[cuts[:-1]]
        self._offsets = xs[self._span] - np.repeat(self._anchors, sizes)

        sums = np.add.reduceat(self._offsets, self._cuts)
        squares = np.add.reduceat(self._offsets * self._offsets, self._cuts)
        sizes = sizes.astype(np.float64)
        counts = (stops - starts).astype(np.float64)
        self._mean = np.empty(self.size)
        self._residual = np.zeros(self.size)
        self._sxx = np.empty(self.size)
        for cols, segs, inside in self._blocks(1):
            block = inside.astype(np.float64)
            self._mean[cols] = ((sizes[segs] * self._anchors[segs] + sums[segs]) @ block) / counts[cols]
            offset_sums = sums[segs] @ block
            offset_squares = squares[segs] @ block
            deviations = self._weights(cols, segs, inside, out=block)  # r_w is still 0 here
            self._residual[cols] = (offset_sums + sizes[segs] @ deviations) / counts[cols]
            weights = self._weights(cols, segs, inside, out=block)
            self._sxx[cols] = offset_squares + 2.0 * (sums[segs] @ weights) + sizes[segs] @ (weights * weights)

    def _blocks(self, rows: int):
        """(window slice, segment slice, boolean membership) blocks; neither the
        membership nor the slopes of ``rows`` rows exceed _CHUNK elements."""
        step = max(1, _CHUNK // max(self._cuts.size, rows))
        for start in range(0, self.size, step):
            cols = slice(start, min(start + step, self.size))
            segs = slice(int(self._first[cols].min()), int(self._stop[cols].max()))
            index = np.arange(segs.start, segs.stop)[:, None]
            yield cols, segs, (index >= self._first[cols]) & (index < self._stop[cols])

    def _weights(self, cols, segs, inside, out):
        """Per-segment weights a_s - xbar_w - r_w, zero outside each window, written to ``out``."""
        np.subtract(self._anchors[segs, None], self._mean[cols], out=out)
        out -= self._residual[cols]
        out *= inside
        return out

    def slope_blocks(self, ys):
        """Yield (window slice, slopes of every row there), one bounded block at a time.

        A window's slope is NaN in rows with a non-finite value inside it.
        """
        values = np.asarray(ys, dtype=np.float64)[:, self._span]
        bad = ~np.isfinite(values)
        flagged = None
        if bad.any():
            values = np.where(bad, 0.0, values)
            per_segment = np.add.reduceat(bad, self._cuts, axis=1, dtype=np.int64)
            prefix = np.zeros((values.shape[0], self._cuts.size + 1), dtype=np.int64)
            np.cumsum(per_segment, axis=1, out=prefix[:, 1:])
            flagged = prefix[:, self._stop] > prefix[:, self._first]
        sums = np.add.reduceat(values, self._cuts, axis=1)
        moments = np.add.reduceat(values * self._offsets, self._cuts, axis=1)
        for cols, segs, inside in self._blocks(values.shape[0]):
            # one float block, first the 0/1 membership, then the weights:
            # a second block-sized array would double the memory churned per call
            block = inside.astype(np.float64)
            slopes = moments[:, segs] @ block
            slopes += sums[:, segs] @ self._weights(cols, segs, inside, out=block)
            slopes /= self._sxx[cols]
            if flagged is not None:
                slopes[flagged[:, cols]] = np.nan
            yield cols, slopes

    def slopes(self, ys) -> np.ndarray:
        """Slopes of every row (axis 0 of ``ys``) over every window, shape (rows, windows)."""
        ys = np.asarray(ys, dtype=np.float64)
        out = np.empty((ys.shape[0], self.size))
        for cols, slopes in self.slope_blocks(ys):
            out[:, cols] = slopes
        return out


def pool_size(workers: int, cells: int) -> int:
    """Processes for a study pool: no more than asked for, than CPUs, or than cells."""
    return max(1, min(workers, os.cpu_count() or 1, cells))


@dataclass(frozen=True)
class _LengthKernel:
    """Both cutoff grids of one series length as window regressions.

    The variance windows regress log S_l^2 on log l over block lengths
    lmin..lmax; the GPH windows regress log I(lambda_j) on -2 log lambda_j
    over frequency indices 1..n-1.
    """

    lmin: int
    lmax: int
    variance: WindowGrid
    gph: WindowGrid

    @classmethod
    def build(cls, n: int, var_grid: np.ndarray, gph_grid: np.ndarray) -> "_LengthKernel":
        lmin, lmax = int(var_grid[:, 0].min()), int(var_grid[:, 1].max())
        lengths = np.arange(lmin, lmax + 1, dtype=np.float64)
        return cls(
            lmin,
            lmax,
            WindowGrid(np.log(lengths), var_grid - lmin),
            WindowGrid(gph_regressors(np.arange(1, n), n), gph_grid - 1),
        )


def _excursion_rows(squares: np.ndarray, levels: QuantileMeasure) -> np.ndarray:
    """Excursion-count transform of each row of y^2.

    The subordinated process exp(y^2 / (2 alpha)) rises strictly with y^2, and
    the transform is invariant under strictly increasing maps, so transforming
    y^2 gives its labels for every alpha > 0 without overflowing.
    """
    out = np.empty_like(squares)
    for i, row in enumerate(squares):
        series = TimeSeries(row)
        out[i] = transform_series(series, resolve_quantiles(series, levels)).values
    return out


def _tally(grid: WindowGrid, logs: np.ndarray, threshold: float) -> np.ndarray:
    """Per window, how many rows are labelled [non-LRD, LRD, skip]; LRD iff slope > threshold."""
    counts = np.empty((grid.size, 3), dtype=np.int64)
    for cols, slopes in grid.slope_blocks(logs):
        lrd = np.count_nonzero(slopes > threshold, axis=0)
        skips = np.count_nonzero(np.isnan(slopes), axis=0)
        counts[cols] = np.column_stack([logs.shape[0] - lrd - skips, lrd, skips])
    return counts


def _cell_counts(
    cfg: StudyConfig,
    levels: QuantileMeasure | None,
    kernels: dict[int, _LengthKernel],
    cell: tuple[int, int, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Label counts of both estimators over one cell: replications first..stop-1
    of one Hurst value at length n, simulated and classified as one batch."""
    n, h_index, first, stop = cell
    seeds = [replication_seed(cfg.master_seed, cfg.scenario, h_index, rep) for rep in range(first, stop)]
    rows = simulate_fgn_paths(FgnParams(hurst=cfg.resolved_hurst_grid()[h_index], n=n), seeds)
    if levels is not None:
        rows = _excursion_rows(rows * rows, levels)
    kernel = kernels[n]
    # zero block variances and ordinates become -inf: their windows are skips
    with np.errstate(divide="ignore"):
        var_logs = np.log(block_variance_rows(rows, kernel.lmin, kernel.lmax))
        gph_logs = np.log(ordinate_rows(rows)[:, 1:])
    return (
        _tally(kernel.variance, var_logs, VARIANCE_LRD_THRESHOLD),
        _tally(kernel.gph, gph_logs, GPH_LRD_THRESHOLD),
    )


def run_study(cfg: StudyConfig) -> list[MetricsReport]:
    """Run the full grid and return one report per (estimator, cutoff, length).

    The work splits into cells of one length, one Hurst value and a chunk of
    at most ``_CHUNK // 2n`` replications.  With ``cfg.workers > 1`` cells are
    spread over a process pool; their integer label counts are summed, so
    output is identical for every worker count.
    """
    cfg.validate()
    hurst_grid = cfg.resolved_hurst_grid()
    levels = None
    if cfg.scenario == "subordinated-fgn":
        levels = draw_levels(cfg.psi, cfg.resolved_level_seed())
    truths = [int(ground_truth_label(cfg.scenario, h) == "LRD") for h in hurst_grid]
    grids = {n: cfg.grids_for(n) for n in cfg.lengths}
    kernels = {n: _LengthKernel.build(n, *grids[n]) for n in cfg.lengths}
    cells = []
    for n in cfg.lengths:
        rows = max(1, _CHUNK // (2 * n))
        cells += [
            (n, h_index, first, min(first + rows, cfg.replications))
            for h_index in range(len(hurst_grid))
            for first in range(0, cfg.replications, rows)
        ]
    # counts[n][estimator][window, truth, label]
    counts = {
        n: tuple(np.zeros((grid.shape[0], 2, 3), dtype=np.int64) for grid in grids[n])
        for n in cfg.lengths
    }
    evaluate = partial(_cell_counts, cfg, levels, kernels)
    size = pool_size(cfg.workers, len(cells))
    with ProcessPoolExecutor(max_workers=size) if size > 1 else contextlib.nullcontext() as pool:
        if pool is None:
            results = map(evaluate, cells)
        else:
            results = pool.map(evaluate, cells, chunksize=max(1, len(cells) // (size * 4)))
        for (n, h_index, _, _), cell_counts in zip(cells, results):
            for total, part in zip(counts[n], cell_counts):
                total[:, truths[h_index]] += part

    reports: list[MetricsReport] = []
    for n in cfg.lengths:
        for estimator, grid, tally in zip(("variance", "gph"), grids[n], counts[n]):
            for idx in range(grid.shape[0]):
                reports.append(
                    MetricsReport(
                        estimator=estimator,
                        n1=int(grid[idx, 0]),
                        n2=int(grid[idx, 1]),
                        series_length=n,
                        tp=int(tally[idx, 1, 1]),
                        fp=int(tally[idx, 0, 1]),
                        tn=int(tally[idx, 0, 0]),
                        fn=int(tally[idx, 1, 0]),
                        skips=int(tally[idx, 0, 2] + tally[idx, 1, 2]),
                    )
                )
    return reports


def rank_cutoffs(reports: list[MetricsReport], k: int) -> list[MetricsReport]:
    """Top-k reports by accuracy.

    Ties break deterministically by higher sensitivity, then narrower window,
    then smaller lower cutoff, then estimator name and length.
    """
    if not reports:
        raise ValueError("no reports to rank")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def key(r: MetricsReport):
        accuracy = -1.0 if math.isnan(r.accuracy) else r.accuracy
        sensitivity = -1.0 if math.isnan(r.sensitivity) else r.sensitivity
        return (-accuracy, -sensitivity, r.n2 - r.n1, r.n1, r.estimator, r.series_length)

    return sorted(reports, key=key)[:k]


def _format_metric(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.6f}"


def write_study_outputs(cfg: StudyConfig, reports: list[MetricsReport], out_dir) -> list[Path]:
    """One metrics CSV per series length plus a JSON manifest of the resolved config."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for n in cfg.lengths:
        rows = sorted(
            (r for r in reports if r.series_length == n),
            key=lambda r: (r.estimator, r.n1, r.n2),
        )
        path = out_dir / f"results_{cfg.scenario}_n{n}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in rows:
                writer.writerow(
                    [
                        r.estimator,
                        r.n1,
                        r.n2,
                        r.tp,
                        r.fp,
                        r.tn,
                        r.fn,
                        r.skips,
                        _format_metric(r.accuracy),
                        _format_metric(r.sensitivity),
                        _format_metric(r.specificity),
                    ]
                )
        written.append(path)
    manifest = out_dir / f"manifest_{cfg.scenario}.json"
    manifest.write_text(json.dumps(cfg.manifest_dict(), sort_keys=True, indent=2) + "\n")
    written.append(manifest)
    return written


def read_report_csv(path) -> list[MetricsReport]:
    """Read back a study metrics CSV; series length is parsed from the name.

    The name must end in ``_n<length>``, as ``write_study_outputs`` writes it.
    """
    path = Path(path)
    _, marker, tail = path.stem.rpartition("_n")
    if not marker or not tail.isdigit():
        raise ValueError(f"{path}: file name lacks the series length suffix _n<digits>")
    length = int(tail)
    reports = []
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            reports.append(
                MetricsReport(
                    estimator=row["estimator"],
                    n1=int(row["n1"]),
                    n2=int(row["n2"]),
                    series_length=length,
                    tp=int(row["tp"]),
                    fp=int(row["fp"]),
                    tn=int(row["tn"]),
                    fn=int(row["fn"]),
                    skips=int(row["skips"]),
                )
            )
    return reports
