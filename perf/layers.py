"""Per-layer metrics of the traced run: names, units and derivations.

Names are ``<module>.<metric>``.  Every traced run reports all of them;
a layer the workload does not exercise reads 0 with a sample count of
0 (``perf/README.md`` maps each layer to the workloads that reach it
and the end-to-end metric it should move).
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.roadpart.binfmt import ORACLE_SECTION_TAGS, read_header
from repro.obs import QueryStats

from perf.measure import mean

#: Per-layer metric -> unit, in report order.
UNITS: Dict[str, str] = {
    "serve.daemon.transport_ms": "ms",
    "serve.daemon.transport_spaced_ms": "ms",
    "serve.daemon.parse_ms": "ms",
    "serve.daemon.handle_ms": "ms",
    "serve.daemon.wait_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.get_us": "us",
    "serve.cache.evictions": "count",
    "core.roadpart.query.window_ms": "ms",
    "core.roadpart.query.region_prune_ms": "ms",
    "core.roadpart.query.bridge_classify_ms": "ms",
    "core.roadpart.query.cor3_ble_ms": "ms",
    "core.roadpart.query.oracle_ms": "ms",
    "core.roadpart.query.bridge_domains_ms": "ms",
    "core.roadpart.query.path_patch_ms": "ms",
    "core.roadpart.query.compute_ms": "ms",
    "core.roadpart.query.bridges_examined": "count",
    "core.roadpart.query.bridges_valid": "count",
    "core.roadpart.query.oracle_hits": "count",
    "core.roadpart.query.oracle_fallbacks": "count",
    "core.roadpart.query.valid_bridge_ratio": "ratio",
    "core.roadpart.query.oracle_hit_ratio": "ratio",
    "core.ble.compute_ms": "ms",
    "core.blq.sssp_ms": "ms",
    "core.blq.collect_ms": "ms",
    "core.hull.membership_ms": "ms",
    "core.hull.crossing_border_ms": "ms",
    "core.hull.connect_borders_ms": "ms",
    "core.hull.border_size": "count",
    "shortestpath.vertices_settled": "count",
    "shortestpath.edges_relaxed": "count",
    "shortestpath.heap_pushes": "count",
    "shortestpath.heap_pops": "count",
    "shortestpath.stale_skips": "count",
    "shortestpath.expansions_pruned": "count",
    "shortestpath.settled_per_pop": "ratio",
    "core.roadpart.index.bridges_s": "s",
    "core.roadpart.index.contour_s": "s",
    "core.roadpart.index.labeling_s": "s",
    "core.roadpart.index.cuts_s": "s",
    "core.roadpart.index.flood_s": "s",
    "core.roadpart.index.pockets_s": "s",
    "core.roadpart.index.oracle_s": "s",
    "core.roadpart.index.astar_expanded": "count",
    "core.roadpart.index.raycast_calls": "count",
    "core.roadpart.index.pocket_count": "count",
    "core.roadpart.index.oracle_entries": "count",
    "core.roadpart.index.fallback_cuts": "count",
    "core.roadpart.binfmt.save_s": "s",
    "core.roadpart.binfmt.load_ms": "ms",
    "core.roadpart.binfmt.index_bytes": "bytes",
    "core.roadpart.binfmt.oracle_bytes": "bytes",
    "loadgen.late_p90_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: ``QueryStats.phases`` labels -> metric suffixes, per entry point.
ROADPART_PHASES = {
    "window": "window_ms", "region-prune": "region_prune_ms",
    "bridge-classify": "bridge_classify_ms", "cor3-ble": "cor3_ble_ms",
    "oracle": "oracle_ms", "bridge-domains": "bridge_domains_ms",
    "path-patch": "path_patch_ms",
}
BLQ_PHASES = {"sssp": "sssp_ms", "collect": "collect_ms"}
HULL_PHASES = {"hull-membership": "membership_ms",
               "crossing-border": "crossing_border_ms",
               "connect-borders": "connect_borders_ms"}

#: ``SearchCounters`` fields reported per query.
COUNTERS = ("vertices_settled", "edges_relaxed", "heap_pushes", "heap_pops",
            "stale_skips", "expansions_pruned")

Layers = Dict[str, Tuple[float, int]]


def phase_means(stats: Sequence[QueryStats], module: str,
                phases: Mapping[str, str]) -> Layers:
    """Mean milliseconds per query of each phase (0 where it did not
    run in a query)."""
    return {f"{module}.{metric}": (
                mean([1000.0 * q.phases.get(label, 0.0) for q in stats]),
                len(stats))
            for label, metric in phases.items()}


def counter_means(stats: Sequence[QueryStats]) -> Layers:
    """Per-query means of the SSSP kernel counters, plus vertices
    settled per heap pop (useful work over attempts)."""
    sums = {name: sum(getattr(q.counters, name) for q in stats)
            for name in COUNTERS}
    n = len(stats) or 1
    out = {f"shortestpath.{name}": (sums[name] / n, len(stats))
           for name in COUNTERS}
    pops = sums["heap_pops"]
    out["shortestpath.settled_per_pop"] = (
        sums["vertices_settled"] / pops if pops else 0.0, pops)
    return out


def roadpart_means(stats: Sequence[QueryStats],
                   compute_s: Sequence[float]) -> Layers:
    """RoadPart phases, compute time and bridge/oracle counts per query,
    and the two useful-work ratios over all examined bridges."""
    out = phase_means(stats, "core.roadpart.query", ROADPART_PHASES)
    out["core.roadpart.query.compute_ms"] = (
        mean([1000.0 * t for t in compute_s]), len(compute_s))
    totals = {k: sum(q.extras.get(k, 0) for q in stats)
              for k in ("b", "bv", "oracle_hits", "oracle_fallbacks")}
    n = len(stats) or 1
    for extra, metric in (("b", "bridges_examined"),
                          ("bv", "bridges_valid"),
                          ("oracle_hits", "oracle_hits"),
                          ("oracle_fallbacks", "oracle_fallbacks")):
        out[f"core.roadpart.query.{metric}"] = (totals[extra] / n,
                                                len(stats))
    examined = totals["b"]
    for extra, metric in (("bv", "valid_bridge_ratio"),
                          ("oracle_hits", "oracle_hit_ratio")):
        out[f"core.roadpart.query.{metric}"] = (
            totals[extra] / examined if examined else 0.0, int(examined))
    return out


def index_file(path: str) -> Layers:
    """Size of a binary index file and of its oracle sections."""
    header = read_header(path)
    oracle = sum(length for tag, (_, length) in header.sections.items()
                 if tag in ORACLE_SECTION_TAGS)
    return {"core.roadpart.binfmt.index_bytes": (os.path.getsize(path), 1),
            "core.roadpart.binfmt.oracle_bytes": (oracle, 1)}


def complete(found: Layers) -> Tuple[Layers, List[str]]:
    """Every per-layer metric, 0 with no samples where not measured;
    also returns the names the workload did not exercise."""
    unknown = sorted(set(found) - set(UNITS))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {unknown}")
    missing = [name for name in UNITS if name not in found]
    out = {name: found.get(name, (0.0, 0)) for name in UNITS}
    return out, missing
