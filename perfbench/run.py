"""Benchmark for lrdetect: Monte Carlo study throughput and a long-series CLI round trip.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-fgn --seed 1 --seconds 30 --trace 0

Workloads (all closed loop: one driving process, the next operation starts
when the previous one ends):

- ``study-fgn``: ``run_study`` + ``write_study_outputs``, fgn scenario, default
  grids, lengths 50/100/200/500, 100 replications per Hurst value
  (4,800 series), 1 worker.
- ``cli-long``: ``lrdetect.cli.main`` round trips in this process: simulate
  one subordinated series of length 10^6 to CSV, then estimate it with the
  variance plot and with GPH after the excursion transform.

The run first measures set-up: ``SETUP_SAMPLES`` fresh interpreters each
import lrdetect and run one small warm-up operation of the workload.  It then
runs operations until ``--seconds`` have passed (at least ``MIN_OPERATIONS``),
checks every operation's outputs, and runs the label cross-check.  With
``--trace 1`` every other operation is traced, and the run lasts until it has
at least ``MIN_OPERATIONS`` traced and ``MIN_OPERATIONS`` untraced ones: the
per-layer metrics come from the traced ones, and the untraced ones give the
tracing overhead.  Before each operation a fixed reference computation that
uses no lrdetect code is timed; its quartiles in the details line show how
fast the host itself was during the run.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` (operations: one per study run, one per CLI call, plus the label
cross-check) and ``metrics``.  The line before it holds the details:
provenance, every sample, quartiles, problems found and the cross-check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("study-fgn", "cli-long")
SCENARIO = {"study-fgn": "fgn", "cli-long": "subordinated-fgn"}
SETUP_SAMPLES = 7
MIN_OPERATIONS = 3
PROBE_TIMEOUT_S = 60

PER_LAYER_SPANS = {
    "varplot.block_mean_variances.busy_s": ("varplot.block_mean_variances", "busy_s"),
    "varplot.block_mean_variances.calls": ("varplot.block_mean_variances", "calls"),
    "varplot.variance_plot_slope.busy_s": ("varplot.variance_plot_slope", "busy_s"),
    "gph.gph_estimate.busy_s": ("gph.gph_estimate", "busy_s"),
    "gph.full_ordinates.busy_s": ("gph.full_ordinates", "busy_s"),
    "study.run_study.self_s": ("study.run_study", "self_s"),
    "study.write_study_outputs.busy_s": ("study.write_study_outputs", "busy_s"),
    "fgn.simulate_fgn.busy_s": ("fgn.simulate_fgn", "busy_s"),
    "fgn.simulate_fgn.calls": ("fgn.simulate_fgn", "calls"),
    "fgn.subordinate.busy_s": ("fgn.subordinate", "busy_s"),
    "excursion.resolve_quantiles.busy_s": ("excursion.resolve_quantiles", "busy_s"),
    "excursion.transform_series.busy_s": ("excursion.transform_series", "busy_s"),
    "series.write_series_csv.busy_s": ("series.write_series_csv", "busy_s"),
    "series.read_series_csv.busy_s": ("series.read_series_csv", "busy_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
PER_LAYER_COUNTS = ("study.labels", "study.skip_share", "series.csv_bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import lrdetect from this checkout's src/, never from anywhere else."""
    if not (SRC / "lrdetect" / "__init__.py").is_file():
        raise SystemExit(f"error: no lrdetect package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lrdetect

    if Path(lrdetect.__file__).resolve().parent != (SRC / "lrdetect").resolve():
        raise SystemExit(f"error: imported lrdetect from {lrdetect.__file__}, not from {SRC}")
    return lrdetect


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "cli-long":
        return workloads.CliWorkload(seed, workdir)
    recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))
    return workloads.StudyWorkload(seed, workdir, recorded)


def setup_probe(args) -> None:
    """Time importing lrdetect plus one warm-up operation in this fresh interpreter."""
    start = time.perf_counter()
    import_package()
    make_workload(args.workload, args.seed, Path(args.setup_probe)).warm_up()
    print(time.perf_counter() - start)


def measure_setup(args, workdir: Path) -> list[float]:
    samples = []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir / f"probe{i}"),
                "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def quartiles(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "count": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "count": len(values)}


def provenance(lrdetect, seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "lrdetect").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lrdetect": lrdetect.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def host_probe_s() -> float:
    """Seconds for a fixed numpy FFT and pure-Python loop, independent of lrdetect."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(1 << 16)
    start = time.perf_counter()
    for _ in range(40):
        np.fft.rfft(x)
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def average_layers(traced_ops) -> dict:
    """Calls, busy and self seconds per span name, per traced operation."""
    names = sorted({name for op in traced_ops for name in op["layers"]})
    return {
        name: {
            field: sum(op["layers"].get(name, {}).get(field, 0.0) for op in traced_ops) / len(traced_ops)
            for field in ("calls", "busy_s", "self_s")
        }
        for name in names
    }


def per_layer_metrics(traced_ops, untraced_walls) -> dict:
    """Per-layer values per traced operation, plus tracing overhead and coverage."""
    from tracing import span_cost_s, top_level_seconds

    layers = average_layers(traced_ops)
    values = {metric: layers.get(span, {}).get(field, 0.0) for metric, (span, field) in PER_LAYER_SPANS.items()}
    for metric in PER_LAYER_COUNTS:
        values[metric] = statistics.fmean(op["counts"].get(metric, 0.0) for op in traced_ops)
    traced_walls = [op["wall_s"] for op in traced_ops]
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    values["trace.span_cost_s"] = statistics.fmean(len(op["spans"]) for op in traced_ops) * span_cost_s()
    values["trace.coverage"] = statistics.median(
        top_level_seconds(op["spans"]) / op["wall_s"] for op in traced_ops
    )
    return values


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this kind of run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    lrdetect = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, workdir, lrdetect)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path, lrdetect) -> int:
    setup_samples = measure_setup(args, workdir)
    import workloads
    from tracing import Tracer, layer_totals

    workload = make_workload(args.workload, args.seed, workdir)
    workload.warm_up()
    tracer = Tracer() if args.trace else None

    walls, untraced_walls, traced_ops, probes = [], [], [], []
    attempted = failed = 0
    problems, digests = [], []

    def enough() -> bool:
        if time.perf_counter() - start < args.seconds:
            return False
        if tracer is None:
            return len(walls) >= MIN_OPERATIONS
        return min(len(traced_ops), len(untraced_walls)) >= MIN_OPERATIONS

    start = time.perf_counter()
    index = 0
    while not enough():
        traced = tracer is not None and index % 2 == 1
        workload.prepare(index)
        probes.append(host_probe_s())
        attempted += workload.calls_per_op
        op_start = time.perf_counter()
        try:
            if traced:
                with tracer.recording():
                    result = workload.run(index, tracer.span)
            else:
                result = workload.run(index)
        except Exception as exc:  # keep measuring; the operation counts as failed
            result = None
            op_failed, op_problems, op_digests = workload.calls_per_op, [repr(exc)], {}
        wall = time.perf_counter() - op_start
        if result is not None:
            try:
                op_failed, op_problems, op_digests = workload.check(result)
            except Exception as exc:
                op_failed, op_problems, op_digests = workload.calls_per_op, [f"check raised {exc!r}"], {}
        failed += op_failed
        problems.extend(f"operation {index}: {p}" for p in op_problems)
        digests.append(op_digests)
        walls.append(wall)
        if traced:
            counts = {**dict(tracer.counts), **(workload.layer_counts(result) if result else {})}
            traced_ops.append(
                {"wall_s": wall, "spans": tracer.spans, "layers": layer_totals(tracer.spans), "counts": counts}
            )
        else:
            untraced_walls.append(wall)
        index += 1
    measured_s = time.perf_counter() - start
    peak_rss = peak_rss_mb()

    attempted += 1
    cross_start = time.perf_counter()
    cross = workloads.label_cross_check(SCENARIO[args.workload], args.seed)
    cross_s = time.perf_counter() - cross_start
    default_mismatches = sum(cross[n][1] for n in workloads.STUDY_LENGTHS)
    if default_mismatches:
        failed += 1
        problems.append(f"label cross-check: {default_mismatches} mismatches at the default lengths")
    checked = sum(c for c, _ in cross.values())
    label_mismatches = sum(m for _, m in cross.values()) / checked

    if args.trace:
        metrics = per_layer_metrics(traced_ops, untraced_walls)
        metrics["error_share"] = failed / attempted
        metrics["label_mismatches"] = label_mismatches
    else:
        roundtrip = statistics.median(untraced_walls)
        metrics = {
            "series_per_s": workload.series_per_op / roundtrip,
            "roundtrip_s": roundtrip,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss,
        }

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(lrdetect, args.seed),
        "operations": index,
        "measured_s": measured_s,
        "roundtrip_s": quartiles(untraced_walls),
        "traced_roundtrip_s": quartiles([op["wall_s"] for op in traced_ops]) if traced_ops else None,
        "series_per_op": workload.series_per_op,
        "setup_s": quartiles(setup_samples),
        "host_probe_s": quartiles(probes),
        "samples": {"roundtrip_s": walls, "setup_s": setup_samples, "host_probe_s": probes},
        "peak_rss_mb": peak_rss,
        "error_share": failed / attempted,
        "label_cross_check": {str(n): {"checked": c, "mismatches": m} for n, (c, m) in cross.items()},
        "label_cross_check_s": cross_s,
        "csv_digests": digests[0] if all(d == digests[0] for d in digests) else digests,
        "problems": problems[:20],
    }
    if traced_ops:
        details["layers_per_traced_op"] = average_layers(traced_ops)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([op["spans"] for op in traced_ops]))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared_units(args.trace).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
