"""Repeatability of the end-to-end metrics across seeds.

``python perf/spread.py [--workload NAME ...] [--runs K] [--first-seed N]
[--seconds S]`` runs ``perf/run.py`` K times per workload (default 5)
with seeds N, N+1, ... and reports, for each end-to-end metric of
``BENCHMARK.json``, the median, the range (max - min) and the
interquartile distance (``statistics.quantiles(values, n=4)``), each as
a share of the median, next to the metric's bound.  A metric is flagged
when its range exceeds the bound or its interquartile share exceeds a
third of the bound; ``setup_s`` is reported but not flagged (set-up
time is judged by its median alone).  Results also go to
``perf/out/spread.json``.  The exit status is 1 when a run fails or a
metric is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spreads(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med,
            "range": (max(values) - min(values)) / med if med else 0.0,
            "iqr": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(prog="perf/spread.py")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report: Dict[str, Dict] = {}
    flagged = False
    for name in names:
        values: Dict[str, List[float]] = {m: [] for m in bounds}
        walls: List[float] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(ROOT, "perf", "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}", "--trace", "0"]
            started = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=900)
            walls.append(time.perf_counter() - started)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: run failed"
                      f" (exit {out.returncode})\n{out.stderr}",
                      file=sys.stderr)
                return 1
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        report[name] = {"wall_s": walls}
        print(f"{name:<12} wall per run: median"
              f" {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for metric, bound in bounds.items():
            s = spreads(values[metric])
            over = metric != "setup_s" and (s["range"] > bound
                                            or s["iqr"] > bound / 3)
            flagged |= over
            report[name][metric] = dict(s, bound=bound,
                                        values=values[metric])
            print(f"{name:<12} {metric:<14} median {s['median']:<12.6g}"
                  f" range {s['range']:7.2%}  iqr {s['iqr']:7.2%}"
                  f"  bound {bound:.0%}{'  WIDE' if over else ''}")
    os.makedirs(os.path.join(ROOT, "perf", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "perf", "out", "spread.json"), "w",
              encoding="ascii") as stream:
        json.dump({"runs": args.runs, "first_seed": args.first_seed,
                   "seconds": args.seconds, "workloads": report},
                  stream, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
