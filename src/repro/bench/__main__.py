"""``python -m repro.bench``: regenerate every table and figure.

Runs each experiment at full stand-in scale and writes the rendered
tables to ``reports/`` (the same files the pytest benchmarks emit),
printing them as it goes.  Takes a minute or two; pass experiment names
to run a subset, e.g. ``python -m repro.bench table1 fig11``.

``--small`` shrinks the workloads (one dataset, two sweep points) for a
CI smoke run.  ``--inject`` (``throughput`` only) adds a deterministic
fault-injection pass asserting the serve driver's blast-radius
contract.  ``table2`` and ``fig10`` additionally write the
machine-readable baselines ``BENCH_table2.json`` / ``BENCH_fig10.json``
(schema ``repro-bench-v1``) to the repository root -- see
docs/observability.md.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Callable, Dict, List, Optional

from repro.bench.reporting import render_series, render_table, write_bench_json

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
REPORT_DIR = REPO_ROOT / "reports"

#: Timing repeats per query in the JSON baselines (median + p95).
BASELINE_REPEATS = 3


def _emit(name: str, text: str) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def _emit_json(name: str, rows) -> None:
    path = REPO_ROOT / f"BENCH_{name}.json"
    write_bench_json(path, rows)
    print(f"wrote {path} ({len(rows)} rows)")


def _run_table1(small: bool = False) -> None:
    from repro.bench.experiments.table1 import as_table, run_table1
    headers, cells = as_table(run_table1())
    _emit("table1", render_table(
        "Table I -- datasets and RoadPart index construction", headers,
        cells))


def _run_fig10(small: bool = False) -> None:
    from repro.bench.experiments.fig10 import run_fig10
    from repro.bench.metrics import AlgorithmMeasure, bench_row
    from repro.bench.workloads import FIG10_BORDER_COUNTS, FIG10_DATASET
    counts = FIG10_BORDER_COUNTS[:2] if small else None
    points = run_fig10(border_counts=counts)
    _emit("fig10", render_series(
        "Figure 10 -- effect of l on partitioning (EAST-S)", "l",
        {"partition time (s)": [p.partition_seconds for p in points],
         "oracle (s)": [p.oracle_seconds for p in points],
         "|R|": [p.region_count for p in points],
         "max region M": [p.max_region_size for p in points]},
        [p.border_count for p in points]))
    # In the baseline rows an index build "query" reports the partition
    # time, and dps_size carries |R| (the build's output size).  The
    # l-independent oracle phase rides along as its own extra so the
    # full build cost stays on record without burying the l trend.
    rows = []
    for p in points:
        measure = AlgorithmMeasure("RoadPart-build", p.partition_seconds,
                                   p.region_count,
                                   samples=list(p.partition_samples or []))
        rows.append(bench_row("fig10", FIG10_DATASET, measure,
                              border_count=p.border_count,
                              max_region_size=p.max_region_size,
                              oracle_seconds=p.oracle_seconds))
    _emit_json("fig10", rows)


def _run_table2(small: bool = False) -> None:
    from repro.bench.experiments.table2 import as_table, run_qdps, run_stdps
    from repro.bench.metrics import bench_row
    from repro.bench.workloads import QDPS_EPSILONS
    json_rows = []
    datasets = ("COL-S",) if small else ("USA-S", "EAST-S", "COL-S")
    for dataset in datasets:
        epsilons = QDPS_EPSILONS[dataset][:2] if small else None
        rows = run_qdps(dataset, epsilons=epsilons,
                        repeats=BASELINE_REPEATS)
        headers, cells = as_table(rows, symmetric=True)
        _emit(f"table2_qdps_{dataset}", render_table(
            f"Table II -- Q-DPS queries on {dataset}", headers, cells))
        for row in rows:
            for measure in row.measures.values():
                json_rows.append(bench_row(
                    "table2-qdps", dataset, measure, epsilon=row.epsilon,
                    query_size=row.query_size))
    st_primes = [0.04] if small else None
    st_rows = run_stdps(epsilon_primes=st_primes,
                        repeats=BASELINE_REPEATS)
    headers, cells = as_table(st_rows, symmetric=False)
    _emit("table2_stdps", render_table(
        "Table II -- (S,T)-DPS queries on USA-S (eps=4%)", headers,
        cells))
    for row in st_rows:
        for measure in row.measures.values():
            json_rows.append(bench_row(
                "table2-stdps", row.dataset, measure, epsilon=row.epsilon,
                epsilon_prime=row.epsilon_prime,
                source_count=row.source_count,
                target_count=row.target_count))
    _emit_json("table2", json_rows)


def _run_fig11(small: bool = False) -> None:
    from repro.bench.experiments.fig11 import run_fig11
    for dataset in ("USA-S", "EAST-S"):
        series = run_fig11(dataset)
        _emit(f"fig11_{dataset}", render_series(
            f"Figure 11 -- V-ratio vs eps on {dataset}", "eps",
            {name: [round(v, 3) for v in values]
             for name, values in series.ratios.items()},
            [f"{e:.0%}" for e in series.epsilons]))


def _run_sec7c(small: bool = False) -> None:
    from repro.bench.experiments.sec7c import run_sec7c
    rows = run_sec7c()
    cells = []
    for row in rows:
        for graph in ("network", "roadpart-dps", "hull-dps"):
            cells.append([f"{row.epsilon:.0%}", row.pair_count, graph,
                          row.graph_sizes[graph],
                          row.dense_seconds[graph],
                          row.lazy_seconds[graph],
                          row.expanded[graph],
                          row.bidi_seconds[graph]])
    _emit("sec7c", render_table(
        "Section VII-C -- PPSP (A*) on road network vs DPS (USA-S)",
        ["eps", "pairs", "graph", "|V| available", "dense A* (s)",
         "lazy A* (s)", "expanded (lazy)", "bidi (s)"], cells))


def _run_sssp(small: bool = False, check: bool = False) -> bool:
    """Engine microbenchmark; returns False when the flat kernel loses
    (the ``--check`` CI guard)."""
    from repro.bench.experiments.sssp import run_sssp, speedup
    measures = run_sssp(source_count=4 if small else None,
                        repeats=2 if small else 3)
    ratio = speedup(measures)
    _emit("sssp", render_table(
        f"SSSP kernel microbenchmark -- full sweeps on"
        f" {measures[0].dataset} (flat/dict speedup {ratio:.2f}x)",
        ["engine", "sweeps", "settled", "median (s)", "sweeps/s",
         "settled/s"],
        [[m.engine, m.sweeps, m.vertices_settled, round(m.seconds, 4),
          round(m.sweeps_per_second, 2), round(m.settled_per_second)]
         for m in measures]))
    if check and ratio <= 1.0:
        print(f"FAIL: flat kernel is not faster than the dict engine"
              f" (speedup {ratio:.2f}x)", file=sys.stderr)
        return False
    return True


def _run_bridges(small: bool = False, check: bool = False) -> bool:
    """Dual-heap kernel microbenchmark; returns False when the fused
    flat loop misses its speedup floor (the ``--check`` CI guard)."""
    from repro.bench.experiments.bridges import (
        BRIDGES_CHECK_RATIO,
        ORACLE_CHECK_RATIO,
        oracle_speedup,
        run_bridges,
        screen_speedup,
        speedup,
    )
    measures = run_bridges(repeats=2 if small else 5)
    ratio = speedup(measures)
    oracle_ratio = oracle_speedup(measures)
    oracle_note = ("" if oracle_ratio is None
                   else f", oracle/flat {oracle_ratio:.2f}x, screen/oracle"
                        f" {screen_speedup(measures):.2f}x")
    _emit("bridges", render_table(
        f"Dual-heap kernel microbenchmark -- bridge domains on"
        f" {measures[0].dataset} (flat/dict speedup"
        f" {ratio:.2f}x{oracle_note})",
        ["engine", "bridges", "targets", "median (ms)", "domains/s",
         "first pass (ms)"],
        [[m.engine, m.bridges, m.targets, round(m.seconds * 1e3, 3),
          round(m.domains_per_second, 1),
          "-" if m.first_pass is None else round(m.first_pass * 1e3, 3)]
         for m in measures]))
    if check and ratio < BRIDGES_CHECK_RATIO:
        print(f"FAIL: fused flat dual-heap loop is below"
              f" {BRIDGES_CHECK_RATIO}x the dict engine"
              f" (speedup {ratio:.2f}x)", file=sys.stderr)
        return False
    if check and oracle_ratio is None:
        print("FAIL: no oracle measure ran (the index carried no"
              " table)",
              file=sys.stderr)
        return False
    if check and oracle_ratio < ORACLE_CHECK_RATIO:
        print(f"FAIL: endpoint tree table is below {ORACLE_CHECK_RATIO}x"
              f" the fused flat kernel (speedup {oracle_ratio:.2f}x)",
              file=sys.stderr)
        return False
    return True


def _run_build(small: bool = False, check: bool = False) -> bool:
    """Oracle construction microbenchmark; returns False when the
    endpoint tree table misses its speedup floor over the pruned
    labelling (the ``--check`` CI guard)."""
    from repro.bench.experiments.build import (
        BUILD_CHECK_RATIO,
        BUILD_REPEATS,
        run_build,
        speedup,
    )
    measures = run_build(repeats=1 if small else BUILD_REPEATS)
    ratio = speedup(measures)
    _emit("build", render_table(
        f"Oracle construction microbenchmark -- endpoint tree table vs"
        f" partial PLL on {measures[0].dataset} (pll/table speedup"
        f" {ratio:.2f}x)",
        ["builder", "endpoints", "entries", "median (s)", "entries/s"],
        [[m.builder, m.endpoints, m.entries, round(m.seconds, 4),
          round(m.entries_per_second)] for m in measures]))
    if check and ratio < BUILD_CHECK_RATIO:
        print(f"FAIL: endpoint tree table build is below"
              f" {BUILD_CHECK_RATIO}x the scalar PLL over the same"
              f" endpoints (speedup {ratio:.2f}x)", file=sys.stderr)
        return False
    return True


def _run_throughput(small: bool = False, inject: bool = False,
                    arrival_rate: Optional[float] = None,
                    requests: Optional[int] = None) -> None:
    from repro.bench.experiments.throughput import (
        ARRIVAL_RATE,
        ARRIVAL_REQUESTS,
        run_arrival_rate,
        run_throughput,
    )
    if arrival_rate is not None:
        rate = arrival_rate or ARRIVAL_RATE
        count = requests or (12 if small else ARRIVAL_REQUESTS)
        measure = run_arrival_rate(rate=rate, request_count=count,
                                   unique_queries=4 if small else 8)
        _emit("throughput_arrival", render_table(
            f"Open-loop daemon latency -- {measure.algorithm} on"
            f" {measure.dataset} at {measure.rate:g} req/s"
            f" (/metrics counters verified against bench tallies)",
            ["requests", "unique", "span (s)", "achieved req/s",
             "p50 (ms)", "p95 (ms)", "p99 (ms)", "cache hits",
             "cache misses", "failures"],
            [[measure.requests, measure.unique_queries,
              round(measure.seconds, 3),
              round(measure.achieved_rps, 1),
              round(measure.latency_percentile_ms(50), 2),
              round(measure.latency_percentile_ms(95), 2),
              round(measure.latency_percentile_ms(99), 2),
              measure.cache_hits, measure.cache_misses,
              measure.failures]]))
        print("metrics cross-check: ok -- daemon counters match the"
              " bench's own request tallies")
        return
    measures = run_throughput(query_count=4 if small else 8,
                              repeats=1 if small else 3, inject=inject)
    _emit("throughput", render_table(
        f"Batched-query throughput -- {measures[0].algorithm} on"
        f" {measures[0].dataset} (answers identical across jobs;"
        f" speedup needs real cores)",
        ["jobs", "queries", "median batch (s)", "queries/s"],
        [[m.jobs, m.queries, round(m.seconds, 4),
          round(m.queries_per_second, 2)] for m in measures]))
    if inject:
        print("fault injection: ok -- poisoned query failed"
              " structurally, all other answers byte-identical")


def _run_ablations(small: bool = False) -> None:
    from repro.bench.experiments.ablations import (
        run_bridge_pruning,
        run_partitioning_choices,
        run_window_tightness,
    )
    rows = run_bridge_pruning()
    _emit("ablation_bridge_pruning", render_table(
        "Ablation A -- bridge pruning rules (USA-S, eps=4%)",
        ["configuration", "examined b", "valid bv", "time (s)", "|V'|"],
        [[r.configuration, r.examined, r.valid, r.seconds, r.dps_size]
         for r in rows]))
    rows = run_window_tightness()
    _emit("ablation_window", render_table(
        "Ablation B -- window tightness (EAST-S)",
        ["eps", "window", "regions kept", "|V'|", "time (s)"],
        [[f"{r.epsilon:.0%}", r.mode, r.regions_kept, r.dps_size,
          r.seconds] for r in rows]))
    rows = run_partitioning_choices()
    _emit("ablation_partitioning", render_table(
        "Ablation C -- contour and border selection (COL-S, eps=20%)",
        ["configuration", "build (s)", "|R|", "max region M",
         "|V'| on std query"],
        [[r.configuration, r.build_seconds, r.region_count,
          r.max_region_size, r.dps_size] for r in rows]))


EXPERIMENTS: Dict[str, Callable[..., None]] = {
    "table1": _run_table1,
    "fig10": _run_fig10,
    "table2": _run_table2,
    "fig11": _run_fig11,
    "sec7c": _run_sec7c,
    "ablations": _run_ablations,
    "sssp": _run_sssp,
    "bridges": _run_bridges,
    "build": _run_build,
    "throughput": _run_throughput,
}

#: Experiments that take ``check=`` and gate the exit status.
CHECKED_EXPERIMENTS = ("sssp", "bridges", "build")


def main(argv: List[str]) -> int:
    small = "--small" in argv
    check = "--check" in argv
    inject = "--inject" in argv
    # --arrival-rate[=R] switches throughput to the open-loop daemon
    # mode; --requests=N sizes it.  Flag-only argv parsing, like the
    # rest of this entry point.
    arrival_rate = None
    requests = None
    names: List[str] = []
    for arg in argv:
        if arg in ("--small", "--check", "--inject"):
            continue
        if arg == "--arrival-rate":
            arrival_rate = 0.0  # sentinel: mode on, default rate
        elif arg.startswith("--arrival-rate="):
            arrival_rate = float(arg.split("=", 1)[1])
        elif arg.startswith("--requests="):
            requests = int(arg.split("=", 1)[1])
        else:
            names.append(arg)
    names = names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown};"
              f" available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        if name in CHECKED_EXPERIMENTS:
            if EXPERIMENTS[name](small=small, check=check) is False:
                status = 1
        elif name == "throughput":
            EXPERIMENTS[name](small=small, inject=inject,
                              arrival_rate=arrival_rate,
                              requests=requests)
        else:
            EXPERIMENTS[name](small=small)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
