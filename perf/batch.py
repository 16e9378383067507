"""The ``batch-sssp`` workload: BL-Q and ConvexHull in process.

One thread answers a fixed batch of Q-DPS queries with the two
full-graph SSSP algorithms and the library's default engine.  The batch
is repeated whole until ``--seconds`` is used up (a pass is not started
when it would overrun by more than a tenth), so every run measures the
same query mix.  No daemon, cache, RoadPart index or oracle is involved.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.core.hull import convex_hull_dps
from repro.core.verify import verify_dps
from repro.obs import QueryStats

from perf import layers, workloads
from perf.measure import mean, median, tail_percentiles, vm_hwm_mb
from perf.spans import SpanRecorder

#: Windows per batch ε; each is answered by both algorithms.
WINDOWS_PER_EPSILON = 3

ENTRY = {"blq": bl_quality, "hull": convex_hull_dps}


def run_passes(network, plan: List[Tuple[str, DPSQuery]], seconds: float,
               ) -> Tuple[List[float], List[list]]:
    """Whole passes over ``plan`` until ``seconds`` is used up; returns
    per-query seconds and each pass's answers."""
    times: List[float] = []
    passes: List[list] = []
    started = time.perf_counter()
    last = 0.0
    while not passes or (time.perf_counter() - started + last
                         <= 1.1 * seconds):
        pass_start = time.perf_counter()
        answers = []
        for algorithm, query in plan:
            t = time.perf_counter()
            answers.append(ENTRY[algorithm](network, query))
            times.append(time.perf_counter() - t)
        passes.append(answers)
        last = time.perf_counter() - pass_start
    return times, passes


def run(ctx, network, setup_times: List[float]) -> Dict:
    per_eps = 1 if ctx.smoke else WINDOWS_PER_EPSILON
    plan = [(algorithm, DPSQuery.q_query(w.vertices))
            for algorithm, w in workloads.batch_plan(network, ctx.seed,
                                                     per_eps)]
    # Untimed warm-up: CSR arrays and scratch arenas exist afterwards.
    algorithm, query = min(plan, key=lambda item: len(item[1].sources))
    ENTRY[algorithm](network, query)

    times, passes = run_passes(network, plan, ctx.seconds)
    peak_rss = vm_hwm_mb()
    problems = _check(network, plan, passes, ctx.seed)
    first = passes[0]
    # One operation is one pass: the per-query latencies mix eight
    # (algorithm, ε) classes, whose median is not a stable statistic.
    pass_ms = [1000.0 * sum(times[i:i + len(plan)])
               for i in range(0, len(times), len(plan))]
    metrics = {
        "setup_s": (median(setup_times), len(setup_times)),
        "p50_ms": (median(pass_ms), len(pass_ms)),
        "ops_per_s": (len(times) / sum(times), len(times)),
        "peak_rss_mb": (peak_rss, 1),
        "dps_size_mean": (mean([r.size for r in first]), len(first)),
    }
    found: Dict[str, Tuple[float, int]] = {}
    recorder = None
    if ctx.trace:
        recorder = SpanRecorder()
        untraced = sum(times[:len(plan)])
        traced, stats = _traced_pass(recorder, network, plan)
        found["trace.overhead_ratio"] = ((traced - untraced) / untraced,
                                         len(plan))
        found.update(_phase_layers(stats))
    return {"metrics": metrics, "layers": found, "problems": problems,
            "attempted": len(times), "failed": 0,
            "extra": {"passes": len(passes), "queries_per_pass": len(plan),
                      "query_ms": {"p50": 1000.0 * median(times),
                                   **{k: 1000.0 * v for k, v in
                                      tail_percentiles(times).items()}}},
            "recorder": recorder}


def _check(network, plan, passes, seed: int) -> List[str]:
    """Every first-pass answer preserves distances; later passes repeat
    the first pass's answers."""
    problems = []
    for (algorithm, query), result in zip(plan, passes[0]):
        report = verify_dps(network, result, query, max_sources=4,
                            seed=seed)
        if not report.ok:
            problems.append(f"{algorithm} answer is not distance"
                            f" preserving: {report.summary()}")
    for n, answers in enumerate(passes[1:], start=2):
        changed = sum(1 for a, b in zip(passes[0], answers)
                      if a.vertices != b.vertices)
        if changed:
            problems.append(f"pass {n} changed {changed} answers")
    return problems


def _traced_pass(recorder: SpanRecorder, network, plan
                 ) -> Tuple[float, List[Tuple[str, QueryStats]]]:
    stats = []
    started = time.perf_counter()
    for n, (algorithm, query) in enumerate(plan):
        qstats = QueryStats()
        with recorder.span(f"compute.{algorithm}", request=n) as sid:
            begun = time.perf_counter()
            ENTRY[algorithm](network, query, stats=qstats)
        recorder.add_sequence(qstats.phases, algorithm, begun, sid, n)
        stats.append((algorithm, qstats))
    return time.perf_counter() - started, stats


def _phase_layers(stats: List[Tuple[str, QueryStats]]
                  ) -> Dict[str, Tuple[float, int]]:
    blq = [q for a, q in stats if a == "blq"]
    hull = [q for a, q in stats if a == "hull"]
    found = layers.phase_means(blq, "core.blq", layers.BLQ_PHASES)
    found.update(layers.phase_means(hull, "core.hull", layers.HULL_PHASES))
    found["core.hull.border_size"] = (
        mean([q.extras.get("border", 0) for q in hull]), len(hull))
    found.update(layers.counter_means([q for _, q in stats]))
    return found
