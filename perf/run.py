"""Benchmark entry point: ``python perf/run.py [options]``.

Runs the chosen workloads (default: all four) on the EAST-S stand-in,
prints every end-to-end metric as ``workload metric value unit (n=..)``,
writes ``perf/out/results.json`` and ends its standard output with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` the JSON line carries the per-layer metrics instead, and
each workload's spans go to ``perf/out/<workload>.trace.json``.  The
exit status is 1 when a correctness check fails, 2 when the repository
sources are missing.

Options: ``--workload NAME`` (repeatable), ``--seed N``, ``--seconds S``
(measured time per workload), ``--trace [0|1]``, ``--smoke`` (the small
COL-S stand-in and two-second runs, for the self-tests).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perf", "out")
#: Generated inputs shared by every run of this checkout.
CACHE = os.path.join(OUT, "cache")

WORKLOADS = ("serve-hot", "serve-cold", "batch-sssp", "index-build")
SERVING = ("serve-hot", "serve-cold")

#: End-to-end metric -> unit, in report order.
E2E_UNITS = {"setup_s": "s", "p50_ms": "ms", "ops_per_s": "1/s",
             "peak_rss_mb": "MiB", "dps_size_mean": "vertices"}

DATASET = "EAST-S"
SMOKE_DATASET = "COL-S"
SMOKE_SECONDS = 2.0
#: Network loads timed for ``setup_s`` by the in-process workloads.
SETUP_REPEATS = 5


@dataclass
class Context:
    """Everything a workload needs; built once per invocation."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    out: str
    graph: str
    coords: str
    index: Optional[str]
    border_count: int
    env: Dict[str, str]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perf/run.py",
        description="End-to-end and per-layer benchmark (perf/README.md)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="COL-S stand-in, two-second runs")
    return parser.parse_args(argv)


def prepare_inputs(dataset: str, need_index: bool):
    """DIMACS files of the stand-in and, when needed, its serving index
    (built with the CLI defaults), cached under ``perf/out/cache`` by a
    digest of the sources so any edit rebuilds them."""
    from repro.core.roadpart.index import build_index
    from repro.datasets.catalog import DATASETS, load_dataset
    from repro.graph.io import read_dimacs, write_dimacs

    from perf.measure import source_digest

    os.makedirs(CACHE, exist_ok=True)
    stem = os.path.join(CACHE, f"{dataset}-{source_digest(SRC)[:16]}")
    graph, coords, index = f"{stem}.gr", f"{stem}.co", f"{stem}.rpix"
    tmp = f".{os.getpid()}.tmp"
    if not (os.path.exists(graph) and os.path.exists(coords)):
        network, _ = load_dataset(dataset)
        write_dimacs(network, graph + tmp, coords + tmp)
        os.replace(coords + tmp, coords)
        os.replace(graph + tmp, graph)
    if not need_index:
        return graph, coords, None
    if not os.path.exists(index):
        built = build_index(read_dimacs(graph, coords),
                            DATASETS[dataset].border_count, oracle="auto")
        built.save_binary(index + tmp)
        os.replace(index + tmp, index)
    return graph, coords, index


def load_network(ctx: Context):
    """Load the network ``SETUP_REPEATS`` times; returns the last load
    and the seconds each took (DIMACS parse plus CSR build)."""
    from repro.graph.io import read_dimacs
    times = []
    network = None
    for _ in range(SETUP_REPEATS):
        network = None  # free the previous load first
        t = time.perf_counter()
        network = read_dimacs(ctx.graph, ctx.coords)
        network.csr()
        times.append(time.perf_counter() - t)
    return network, times


def run_workload(name: str, ctx: Context) -> Dict:
    from perf import batch, build, serving
    if name in SERVING:
        return serving.run(serving.HOT if name == "serve-hot"
                           else serving.COLD, ctx)
    network, setup = load_network(ctx)
    module = batch if name == "batch-sssp" else build
    return module.run(ctx, network, setup)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the repro sources are missing ({SRC}); run from a"
              f" full checkout", file=sys.stderr)
        return 2
    # The script's own directory would shadow modules; import perf.* from
    # the checkout root and repro from its sources instead.
    sys.path[0:1] = [ROOT, SRC]
    from repro.datasets.catalog import DATASETS
    from repro.shortestpath.flat import resolve_engine

    from perf import layers
    from perf.measure import provenance

    load_at_start = os.getloadavg()
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    out = os.path.join(OUT, "smoke") if args.smoke else OUT
    os.makedirs(out, exist_ok=True)
    dataset = SMOKE_DATASET if args.smoke else DATASET
    graph, coords, index = prepare_inputs(
        dataset, any(n in SERVING for n in names))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    ctx = Context(seed=args.seed,
                  seconds=SMOKE_SECONDS if args.smoke else args.seconds,
                  trace=bool(args.trace), smoke=args.smoke, out=out,
                  graph=graph, coords=coords, index=index,
                  border_count=DATASETS[dataset].border_count, env=env)

    report: Dict[str, Dict] = {}
    oracle_kind = None
    for name in names:
        result = run_workload(name, ctx)
        oracle_kind = result.get("oracle_kind", oracle_kind)
        entry = {"correct": not result["problems"],
                 "problems": result["problems"],
                 "attempted": result["attempted"],
                 "failed": result["failed"],
                 "metrics": {m: {"value": v, "unit": E2E_UNITS[m],
                                 "samples": n}
                             for m, (v, n) in result["metrics"].items()},
                 "extra": result["extra"]}
        for metric in E2E_UNITS:
            value, samples = result["metrics"][metric]
            print(f"{name} {metric} {value:.6g} {E2E_UNITS[metric]}"
                  f" (n={samples})")
        if ctx.trace:
            found, idle = layers.complete(result["layers"])
            entry["layers"] = {m: {"value": v, "unit": layers.UNITS[m],
                                   "samples": n}
                               for m, (v, n) in found.items()}
            entry["not_exercised"] = idle
            for metric, (value, samples) in found.items():
                print(f"{name} {metric} {value:.6g} {layers.UNITS[metric]}"
                      f" (n={samples})")
            result["recorder"].write(
                os.path.join(out, f"{name}.trace.json"),
                workload=name, seed=args.seed)
        for problem in result["problems"]:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        report[name] = entry

    with open(os.path.join(out, "results.json"), "w",
              encoding="ascii") as stream:
        json.dump({"provenance": provenance(ROOT, args.seed, load_at_start,
                                            resolve_engine("flat"),
                                            oracle_kind),
                   "dataset": dataset, "seconds": ctx.seconds,
                   "workloads": report}, stream, indent=1)

    key = "layers" if ctx.trace else "metrics"
    metrics = {}
    for name, entry in report.items():
        prefix = "" if len(report) == 1 else f"{name}."
        for metric, value in entry[key].items():
            metrics[prefix + metric] = {"value": value["value"],
                                        "unit": value["unit"]}
    correct = all(entry["correct"] for entry in report.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(e["attempted"] for e in report.values()),
        "failed": sum(e["failed"] for e in report.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
