"""Monte Carlo classification benchmark over cutoff grids, with ranked metric tables.

One study simulates ``replications`` series per Hurst value, classifies every
series with both estimators at every configured cutoff pair, and tallies
confusion counts against the known ground truth.  Everything downstream of
the resolved configuration is deterministic, including across worker counts.
"""

from __future__ import annotations

import csv
import io
import itertools
import numbers
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, WindowExceedsSeries, echo
from .excursion import MAX_PSI, QuantileMeasure, draw_levels, excursion_rows
from .fgn import MAX_LENGTH, FgnParams, SubordinationParams, simulate_fgn_paths
from .gph import GPH_LRD_THRESHOLD, GphConfig, gph_regressors, ordinate_rows
from .series import WindowGrid, _read_text, _write_json, _write_text
from .varplot import VARIANCE_LRD_THRESHOLD, VariancePlotConfig, block_variance_rows

SCENARIOS = ("fgn", "subordinated-fgn")
ESTIMATORS = ("variance", "gph")

_SCENARIO_CODE = {"fgn": 0, "subordinated-fgn": 1}
_LEVELS_STREAM = 2  # entropy tag separating the level panel from path seeds

# Float64 elements that bound one cell's normals (rows x 2n).
_CHUNK = 1 << 16
_GPH_GRID_POINTS = 50  # endpoints per axis that the default GPH grid's stride aims for

# Largest accepted worker count; the pool itself never exceeds the CPU count.
MAX_WORKERS = 64

# Largest accepted replication count per Hurst value: 1,000 times the paper's
# full-scale study, 48 million series at the default grids.
MAX_REPLICATIONS = 10**6

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
# One row of CSV_COLUMNS: the counts written as they are, then the derived
# metrics to six decimals ("nan" when undefined), as csv.writer wrote them.
_CSV_ROW = "%s,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f\r\n"
_CSV_SLICE = 1024  # rows a metrics CSV formats at a time, so few of their Python values live at once
# Where a cell's [non-LRD, LRD, skip] label counts add in a task's count rows
# (tp, fp, tn, fn, skips), by the truth of its Hurst value: a non-LRD series
# labelled non-LRD is a tn and labelled LRD an fp; an LRD one, fn and tp.
_ROWS_BY_TRUTH = ([2, 1, 4], [3, 0, 4])


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


def default_gph_grid(n: int) -> list[tuple[int, int]]:
    """Frequency windows 1 <= l < w <= n - 1, subsampled on a stride so the
    grid stays near ``_GPH_GRID_POINTS`` values per endpoint."""
    stride = max(1, (n - 1) // _GPH_GRID_POINTS)
    marks = list(range(1, n, stride))
    return [(marks[i], marks[j]) for i in range(len(marks)) for j in range(i + 1, len(marks))]


# SeedSequence's hash constants, for _seed_hash's port of its pool mixing.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_hash(*entropy):
    """``SeedSequence(entropy).generate_state(1, np.uint64)[0]``, as a uint64.

    A port of SeedSequence's pool mixing to 32-bit words held as Python ints
    or uint32 arrays, so a cell's seeds cost one pass: a 1-D array among
    ``entropy`` gives a uint64 array, one hash per entry, and each entry must
    fit in one word.  An integer contributes its 32-bit words, least
    significant first, as SeedSequence splits it.
    """
    mask = 0xFFFFFFFF
    words = []
    for e in entropy:
        if np.ndim(e):
            e = np.asarray(e)
            if e.size and not 0 <= e.min() <= e.max() <= mask:
                raise ValueError("array entropy entries must lie in [0, 2**32)")
            words.append(e.astype(np.uint32))
            continue
        e = int(e)
        if e < 0:
            raise ValueError(f"expected non-negative integer, got {echo.repr(e)}")
        words.append(e & mask)
        while e >> 32:
            e >>= 32
            words.append(e & mask)

    def hasher(const: int, mult: int):
        """SeedSequence's word hash; ``const`` advances by ``mult`` at every call."""

        def step(value):
            nonlocal const
            value = value ^ const
            const = const * mult & mask
            value = value * const & mask
            return value ^ value >> 16

        return step

    def mix(x, y):
        result = (_MIX_L * x & mask) - (_MIX_R * y & mask) & mask
        return result ^ result >> 16

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(1, np.uint64): two 32-bit outputs, the first one low
    output = hasher(_INIT_B, _MULT_B)
    low, high = (np.asarray(output(value), dtype=np.uint64) for value in pool[:2])
    return low | high << np.uint64(32)


def replication_seed(master_seed: int, scenario: str, h_index: int, rep_index: int) -> int:
    """Path seed hashed from (master seed, scenario, Hurst index, replication).

    Hashing instead of streaming keeps existing draws fixed when a grid is
    resized or extended.
    """
    return int(_seed_hash(master_seed, _SCENARIO_CODE[scenario], h_index, rep_index))


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {echo.repr(value)}")
    return int(value)


def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {echo.repr(value)}")
    return float(value)


def _items(name: str, value, item) -> tuple:
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ConfigError(f"{name} must be a list, got {echo.repr(value)}")
    return tuple(item(name, v) for v in value)


def _pair(name: str, value) -> tuple[int, int]:
    pair = _items(name, value, _integer)
    if len(pair) != 2:
        raise ConfigError(f"{name} entries must be [low, high] pairs, got {echo.repr(value)}")
    return pair


def _no_repeats(name: str, values: tuple) -> None:
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{name} repeats {echo.repr(value)}")
        seen.add(value)


@dataclass(frozen=True)
class StudyConfig:
    """Complete description of one study run; a fixed config fixes the output.

    It is checked when built: an invalid value raises ConfigError naming the
    field.  A Hurst grid, level seed or window grid left None takes its default.
    """

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
        """Coerce each field to its declared type, then check the values.  A
        value of another type raises ConfigError naming the field; no float is
        truncated to an int."""
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
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {echo.repr(self.scenario)}")
        if not self.lengths or any(not 4 <= n <= MAX_LENGTH for n in self.lengths):
            raise ConfigError(f"lengths must be a nonempty list of integers in [4, {MAX_LENGTH}]")
        # a repeated length or window would count its series or write its row twice
        _no_repeats("lengths", self.lengths)
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ConfigError(f"replications must lie in [1, {MAX_REPLICATIONS}], got {echo.repr(self.replications)}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {echo.repr(self.master_seed)}")
        if self.level_seed is not None and not 0 <= self.level_seed < 1 << 64:
            raise ConfigError(f"level_seed must lie in [0, 2**64), got {echo.repr(self.level_seed)}")
        if not 1 <= self.psi <= MAX_PSI:
            raise ConfigError(f"psi must lie in [1, {MAX_PSI}], got {echo.repr(self.psi)}")
        try:
            SubordinationParams(self.alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must lie in [1, {MAX_WORKERS}], got {echo.repr(self.workers)}")
        grid = self.resolved_hurst_grid()
        if not grid or any(not 0.0 < h < 1.0 for h in grid):
            raise ConfigError("hurst_grid must be nonempty with values strictly in (0, 1)")
        # each window is checked by its estimator's own rule, at every length
        for name, window in (("variance_cutoffs", VariancePlotConfig), ("gph_cutoffs", GphConfig)):
            pairs = getattr(self, name)
            if pairs is None:
                continue
            if len(pairs) == 0:
                raise ConfigError(f"{name} must be nonempty when given")
            _no_repeats(name, pairs)
            for pair in pairs:
                try:
                    config = window(*pair)
                    for n in self.lengths:
                        config.resolve(n)
                except (ValueError, WindowExceedsSeries) as exc:
                    raise ConfigError(f"{name} pair {echo.repr(pair)} invalid: {exc}") from None

    def resolved_level_seed(self) -> int:
        if self.level_seed is not None:
            return int(self.level_seed)
        return int(_seed_hash(self.master_seed, _LEVELS_STREAM))

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
    accuracy: float
    sensitivity: float
    specificity: float

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _metrics(tp: np.ndarray, fp: np.ndarray, tn: np.ndarray, fn: np.ndarray) -> tuple[np.ndarray, ...]:
    """Accuracy, sensitivity and specificity of int64 count columns, as true
    divisions, nan where the denominator is 0: the one place they are computed."""
    with np.errstate(invalid="ignore"):  # 0 / 0 is nan
        return (tp + tn) / (tp + fp + tn + fn), tp / (tp + fn), tn / (tn + fp)


class StudyReports:
    """The reports of one study, or of read metrics CSVs, as count columns,
    read row by row through one column view, ``columns``; iterated, the table
    yields a ``MetricsReport`` per row, built only when it is read.

    ``blocks`` holds (estimator, series length, counts) triples.  A study has
    one per length and estimator, in report order: length by length as
    configured, the variance plot before GPH, windows in grid order; a read
    CSV has one per estimator, rows in file order.  ``counts`` is a
    read-only int64 array whose seven rows are the columns n1, n2, tp, fp,
    tn, fn and skips, one entry per window.  Two tables are equal when their
    blocks are; a table is never equal to a list.
    """

    def __init__(self, blocks: Iterable[tuple[str, int, np.ndarray]]):
        self.blocks = tuple(blocks)
        for _, _, counts in self.blocks:
            counts.setflags(write=False)

    def __len__(self) -> int:
        return sum(counts.shape[1] for _, _, counts in self.blocks)

    def columns(self) -> tuple[np.ndarray, ...]:
        """Every row in table order as the columns of ``MetricsReport``: estimator,
        n1, n2, series length, the five counts, then the three metrics from one
        ``_metrics`` call; the one place count blocks become rows."""
        sizes = [counts.shape[1] for _, _, counts in self.blocks]
        counts = np.hstack([counts for _, _, counts in self.blocks] or [np.zeros((7, 0), dtype=np.int64)])
        estimators = np.repeat(np.array([e for e, _, _ in self.blocks], dtype=str), sizes)
        lengths = np.repeat(np.array([n for _, n, _ in self.blocks], dtype=np.int64), sizes)
        return (estimators, counts[0], counts[1], lengths, *counts[2:], *_metrics(*counts[2:6]))

    def __iter__(self):
        return map(MetricsReport, *(column.tolist() for column in self.columns()))

    def __eq__(self, other):
        if not isinstance(other, StudyReports):
            return NotImplemented
        return len(self.blocks) == len(other.blocks) and all(
            mine[:2] == theirs[:2] and np.array_equal(mine[2], theirs[2])
            for mine, theirs in zip(self.blocks, other.blocks)
        )


def pool_size(workers: int, jobs: int) -> int:
    """Processes for a study pool: no more than asked for, than CPUs, or than
    ``jobs``, the cells (``_plan_cells``) that the study's tasks split."""
    return max(1, min(workers, os.cpu_count() or 1, jobs))


def _plan_cells(cfg: StudyConfig, n: int) -> list[tuple[list[int], range]]:
    """A length's plan of cells, each simulated and classified as one batch:
    per run of consecutive Hurst values of one ground-truth class, the run's
    Hurst indices and the first row of each of its cells.

    A run's rows are its (Hurst index, replication) pairs in order; each cell
    holds ``_CHUNK // 2n`` of them, the run's last cell may hold fewer.  The
    plan depends on the config alone, so every cell is the same batch at
    every worker count: a slope's bits depend on the row count of its batch.
    """
    grid = cfg.resolved_hurst_grid()
    step = max(1, _CHUNK // (2 * n))
    truths = [ground_truth_label(cfg.scenario, h) for h in grid]
    runs = [list(run) for _, run in itertools.groupby(range(len(grid)), key=truths.__getitem__)]
    return [(run, range(0, len(run) * cfg.replications, step)) for run in runs]


def _cells(cfg: StudyConfig, n: int, part: int, parts: int):
    """Cells part, part + parts, part + 2 parts, ... of a length's plan
    (``_plan_cells``), made one at a time: each a tuple of (Hurst index,
    first, stop) pieces, replications first..stop - 1 of that Hurst value."""
    reps, index = cfg.replications, 0
    for run, starts in _plan_cells(cfg, n):
        for start in starts[(part - index) % parts :: parts]:
            stop = min(start + starts.step, len(run) * reps)
            yield tuple(
                (run[i], max(start - i * reps, 0), min(stop - i * reps, reps))
                for i in range(start // reps, (stop - 1) // reps + 1)
            )
        index += len(starts)


def _tally(grid: WindowGrid, logs: np.ndarray, threshold: float) -> np.ndarray:
    """Three rows, how many series each window labels non-LRD, LRD and skip:
    LRD iff slope > threshold, skip iff the slope is NaN (an unusable window).
    Each block of slopes counts into the columns of its window indices."""
    counts = np.zeros((3, grid.size), dtype=np.int64)
    skips = not np.isfinite(logs).all()  # without a non-finite log, no window is unusable
    for cols, slopes in grid.slope_blocks(logs):
        # int32 holds the count: a cell has at most _CHUNK // 8 rows
        counts[1, cols] = np.add.reduce(np.greater(slopes, threshold).view(np.uint8), axis=0, dtype=np.int32)
        if skips:
            counts[2, cols] = np.add.reduce(np.isnan(slopes).view(np.uint8), axis=0, dtype=np.int32)
    counts[0] = logs.shape[0] - counts[1] - counts[2]
    return counts


def _count_cells(cfg: StudyConfig, levels: QuantileMeasure | None, task) -> tuple[np.ndarray, np.ndarray]:
    """The variance and GPH count rows of one task, tp, fp, tn, fn and skips
    per window: the labels of every replication in the task's cells
    (``_cells``) at length n, a NaN slope counting as a skip.

    A length's variance windows regress log S_l^2 on log l over block lengths
    lmin..lmax, and its GPH windows regress log I(lambda_j) on -2 log lambda_j
    over frequency indices 1..n-1.  The task builds the two WindowGrids once
    and frees them when it returns.  A cell simulates each of its Hurst
    values' rows with that value's embedding and stacks them; block
    variances, ordinates and both tallies then run once on the stack, whose
    rows share one ground truth.
    """
    n, var_grid, gph_grid, part, parts = task
    lmin, lmax = int(var_grid[:, 0].min()), int(var_grid[:, 1].max())
    variance = WindowGrid(np.log(np.arange(lmin, lmax + 1, dtype=np.float64)), var_grid - lmin)
    gph = WindowGrid(gph_regressors(np.arange(1, n), n), gph_grid - 1)
    counts = tuple(np.zeros((5, len(grid)), dtype=np.int64) for grid in (var_grid, gph_grid))
    hurst_grid = cfg.resolved_hurst_grid()
    for cell in _cells(cfg, n, part, parts):
        rows_by_label = _ROWS_BY_TRUTH[ground_truth_label(cfg.scenario, hurst_grid[cell[0][0]]) == "LRD"]
        rows = np.vstack(
            [
                simulate_fgn_paths(
                    FgnParams(hurst=hurst_grid[h_index], n=n),
                    _seed_hash(cfg.master_seed, _SCENARIO_CODE[cfg.scenario], h_index, np.arange(first, stop)),
                )
                for h_index, first, stop in cell
            ]
        )
        if levels is not None:
            # exp(y^2 / (2 alpha)) rises strictly with y^2 and the transform is invariant
            # under strictly increasing maps, so y^2 gives every alpha's labels without overflow
            rows = excursion_rows(rows * rows, levels)
        # zero block variances and ordinates become -inf: their windows are skips
        with np.errstate(divide="ignore"):
            var_logs = np.log(block_variance_rows(rows, lmin, lmax))
            gph_logs = np.log(ordinate_rows(rows)[:, 1:])
        counts[0][rows_by_label] += _tally(variance, var_logs, VARIANCE_LRD_THRESHOLD)
        counts[1][rows_by_label] += _tally(gph, gph_logs, GPH_LRD_THRESHOLD)
        del rows, var_logs, gph_logs  # freed before the next cell simulates
    return counts


def _study_tasks(cfg: StudyConfig, grids: dict) -> tuple[int, list[tuple]]:
    """The pool size of a study and its tasks, (n, variance grid, GPH grid,
    part, parts): a length's cells dealt round-robin, whole, to at most one
    task per pool process, task ``part`` taking ``_cells(cfg, n, part, parts)``."""
    counts = {n: sum(len(starts) for _, starts in _plan_cells(cfg, n)) for n in cfg.lengths}
    size = pool_size(cfg.workers, sum(counts.values()))
    return size, [(n, *grids[n], part, size) for n in cfg.lengths for part in range(min(size, counts[n]))]


def run_study(cfg: StudyConfig) -> StudyReports:
    """Run the full grid and return one report per (estimator, cutoff, length),
    as the count columns of a ``StudyReports`` table; no report object is built.

    Each length's replications are planned as cells (``_plan_cells``), the
    same at every worker count.  The work splits into tasks of one length
    each, and with ``cfg.workers > 1`` a length's cells are dealt round-robin
    to as many tasks as the process pool has processes.  Each (length,
    estimator) report block is built once, rows n1 and n2 from its grid, and
    every task's integer count rows add into it, so output is identical for
    every worker count.
    """
    levels = None
    if cfg.scenario == "subordinated-fgn":
        levels = draw_levels(cfg.psi, cfg.resolved_level_seed())
    grids = {n: cfg.grids_for(n) for n in cfg.lengths}
    size, tasks = _study_tasks(cfg, grids)
    count = partial(_count_cells, cfg, levels)
    if size == 1:
        counted = map(count, tasks)
    else:
        # imported only here: loading multiprocessing costs ~20 ms of every import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            counted = list(pool.map(count, tasks))
    blocks = {n: [np.vstack([grid.T, np.zeros((5, len(grid)), dtype=np.int64)]) for grid in grids[n]] for n in grids}
    for (n, *_), counts in zip(tasks, counted):
        for block, part in zip(blocks[n], counts):
            block[2:] += part
    return StudyReports((estimator, n, block) for n in cfg.lengths for estimator, block in zip(ESTIMATORS, blocks[n]))


def rank_cutoffs(reports: StudyReports, k: int) -> list[MetricsReport]:
    """Top-k reports of a table by accuracy, built only for the k rows returned.

    Ties break by higher sensitivity (a nan metric ranks as -1), then narrower
    window, then smaller lower cutoff, then estimator name and length; reports
    equal on all of these keep their table order (the one sort is stable).
    """
    if not reports:
        raise ValueError("no reports to rank")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {echo.repr(k)}")
    columns = reports.columns()
    estimators, n1, n2, lengths, *_, accuracy, sensitivity, _ = columns
    # one stable sort, by its last key first; numpy sorts nan last, where -(-1) would go
    top = np.lexsort((lengths, estimators, n1, n2 - n1, -sensitivity, -accuracy))[:k]
    return list(map(MetricsReport, *(column[top].tolist() for column in columns)))


def write_study_outputs(cfg: StudyConfig, reports: StudyReports, out_dir) -> list[Path]:
    """One metrics CSV per series length plus a JSON manifest of the config as run.

    A length's CSV is formatted from the column view of its blocks of
    ``reports``, the table ``run_study`` returns, its rows sorted by
    (estimator, n1, n2) in one ``np.lexsort``.  The manifest holds every field
    of ``cfg`` as given (a window grid left to the default rule is null), with
    the Hurst grid and the level seed resolved, so ``study --config`` on it
    runs the same study again and rewrites every file byte for byte.
    """
    out_dir = Path(out_dir)
    written = []
    for n in cfg.lengths:
        estimators, n1, n2, _, *values = StudyReports(b for b in reports.blocks if b[1] == n).columns()
        order, text = np.lexsort((n2, n1, estimators)), [",".join(CSV_COLUMNS) + "\r\n"]
        for rows in np.split(order, range(_CSV_SLICE, order.size, _CSV_SLICE)):
            text += [_CSV_ROW % row for row in zip(*(c[rows].tolist() for c in (estimators, n1, n2, *values)))]
        written.append(_write_text(out_dir / f"results_{cfg.scenario}_n{n}.csv", text))
    manifest = {
        **vars(cfg),
        "hurst_grid": [float(h) for h in cfg.resolved_hurst_grid()],
        "level_seed": cfg.resolved_level_seed(),
    }
    written.append(_write_json(out_dir / f"manifest_{cfg.scenario}.json", manifest))
    return written


def _echo_row(values) -> str:
    """A metrics row's seven integer fields, each cut short by ``echo``."""
    return f"[{', '.join(map(echo.repr, values))}]"


def read_report_csv(path) -> StudyReports:
    """Read back a study metrics CSV as a table, one block per estimator with
    the rows in file order; series length is parsed from the name.

    The name must end in ``_n<length>``, as ``write_study_outputs`` writes it.
    A line the csv module rejects, a missing column, a row of the wrong width,
    an estimator the study does not run, a window other than 1 <= n1 < n2, a
    count that is not a non-negative integer, an n2 or a sum of counts above
    2**53 (beyond which float64 metrics lose exactness), a window its
    estimator's rule rejects at the length (as in ``StudyConfig``), or a byte
    that is not UTF-8 (``_read_text``) is a ValueError naming the file and the line.
    """
    path = Path(path)
    _, marker, tail = path.stem.rpartition("_n")
    if not marker or not tail.isdigit():
        raise ValueError(f"{path}: file name lacks the series length suffix _n<digits>")
    length = int(tail)
    blocks = {estimator: [] for estimator in ESTIMATORS}
    rows = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(rows, [])
        missing = [name for name in CSV_COLUMNS[:8] if name not in header]
        if missing:
            raise ValueError(f"{path}: line 1: missing column(s) {', '.join(missing)}")
        columns = [header.index(name) for name in CSV_COLUMNS[:8]]
        for row in rows:
            if not row:
                continue  # a blank line
            line = f"{path}: line {rows.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{line}: {len(row)} fields, the header has {len(header)}")
            estimator, *values = (row[i] for i in columns)
            try:
                n1, n2, *counts = (int(value) for value in values)
            except ValueError:
                raise ValueError(f"{line}: n1, n2 and the counts must be integers, got {_echo_row(values)}") from None
            if estimator not in ESTIMATORS:
                raise ValueError(
                    f"{line}: estimator must be one of {', '.join(ESTIMATORS)}, got {echo.repr(estimator)}"
                )
            if not 1 <= n1 < n2:
                raise ValueError(f"{line}: need 1 <= n1 < n2, got {echo.repr((n1, n2))}")
            if min(counts) < 0:
                raise ValueError(f"{line}: counts must be non-negative, got {echo.repr(values[2:])}")
            if max(n2, sum(counts)) > 1 << 53:
                raise ValueError(
                    f"{line}: n2 and the sum of the counts must be at most 2**53, got {_echo_row(values)}"
                )
            try:
                (VariancePlotConfig if estimator == "variance" else GphConfig)(n1, n2).resolve(length)
            except WindowExceedsSeries as exc:
                raise ValueError(f"{line}: {exc}") from None
            blocks[estimator].append((n1, n2, *counts))
    except csv.Error as exc:
        raise ValueError(f"{path}: line {rows.line_num}: {exc}") from None
    return StudyReports((name, length, np.array(b, dtype=np.int64).reshape(-1, 7).T) for name, b in blocks.items())
