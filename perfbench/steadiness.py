"""Run the benchmark repeatedly and report each end-to-end metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads cli-long,...] [--out FILE]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Each workload runs once per seed with ``run_seconds`` from BENCHMARK.json.
For every end-to-end metric it reports the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the metric's bound.  A spread below a third of the bound is steady.
The median of each run's host probe (a fixed computation that uses no
lrdetect code) is reported the same way, as ``host_probe_s``.

``--compare`` takes two such reports of the same code and gives, per workload
and metric, how much worse each set's median is than the other's.  Two sets
agree when neither is worse than the other by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]), "details": json.loads(lines[-2])["details"]}


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": bound is not None and spread < bound / 3, "values": values}


def worse_by(old: float, new: float, better: str) -> float:
    """Share by which new is worse than old (negative when it is better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def compare(first_path: str, second_path: str, bench: dict) -> None:
    first, second = (json.loads(Path(p).read_text()) for p in (first_path, second_path))
    for workload in first["workloads"].keys() & second["workloads"].keys():
        a, b = first["workloads"][workload]["metrics"], second["workloads"][workload]["metrics"]
        for metric in bench["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            forward = worse_by(a[name]["median"], b[name]["median"], better)
            backward = worse_by(b[name]["median"], a[name]["median"], better)
            print(f"{workload} {name}: second worse by {forward:+.3f}, first worse by {backward:+.3f} "
                  f"(bound {bound}, agree={max(forward, backward) <= bound})")
        probes = [s["workloads"][workload].get("host_probe_s", {}).get("median") for s in (first, second)]
        if None not in probes:
            print(f"{workload} host_probe_s: median {probes[0]:.4g} then {probes[1]:.4g} "
                  f"({probes[1] / probes[0] - 1:+.3f})")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", help="inclusive range such as 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", help="write the report here as JSON")
    parser.add_argument("--compare", nargs=2, metavar="REPORT", help="compare two reports instead of running")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare, bench)
        return
    if not args.seeds:
        parser.error("--seeds is required unless --compare is given")
    first, last = (int(part) for part in args.seeds.split("-"))
    report = {"run_seconds": bench["run_seconds"], "seeds": [first, last], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(first, last + 1):
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            result = runs[-1]["result"]
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "run_wall_s": [r["wall_s"] for r in runs],
            "operation_samples_s": [r["details"]["samples"]["roundtrip_s"] for r in runs],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "provenance": runs[0]["details"]["provenance"],
            "metrics": {},
        }
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            summary = summarize(values, metric["bound"])
            entry["metrics"][metric["name"]] = summary
            print(f"  {metric['name']}: median {summary['median']:.6g}, spread {summary['spread']:.4f} "
                  f"(bound {summary['bound']}, steady={summary['steady']})", flush=True)
        probes = [r["details"]["host_probe_s"]["median"] for r in runs]
        entry["host_probe_s"] = summarize(probes, None)
        print(f"  host_probe_s: median {entry['host_probe_s']['median']:.4g}, "
              f"spread {entry['host_probe_s']['spread']:.4f}", flush=True)
        report["workloads"][workload] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
