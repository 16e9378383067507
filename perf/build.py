"""The ``index-build`` workload: the offline side of the same layers.

Each repeat runs ``build_index`` with the CLI's defaults (flat engine,
``oracle="auto"``, one process), writes the binary index and mmaps it
back -- the pipeline behind ``repro build-index`` plus ``repro serve``.
Repeats continue until ``--seconds`` is used up, with at least two so
that their files can be compared byte for byte.  A seeded set of probe
windows is answered with RoadPart on the reloaded index; its mean DPS
size is the index's answer quality.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

from repro.core.dps import DPSQuery
from repro.core.roadpart.index import RoadPartIndex, build_index
from repro.core.roadpart.query import roadpart_dps
from repro.core.verify import verify_dps
from repro.obs import TraceRecorder

from perf import layers, workloads
from perf.measure import mean, median, sha256_file, vm_hwm_mb
from perf.spans import SpanRecorder

MIN_REPEATS = 2
#: Probe windows whose RoadPart answers give ``dps_size_mean``.
PROBES = 200
#: Probes also answered on the in-memory index and verified.
CHECKED_PROBES = 20

#: Build-trace span labels -> per-layer metric names (summed over
#: every span with the label, e.g. one ``cuts`` per labelling round).
SPANS = {"bridges": "bridges_s", "contour": "contour_s",
         "labeling": "labeling_s", "cuts": "cuts_s", "flood": "flood_s",
         "pockets": "pockets_s", "oracle": "oracle_s"}
#: ``IndexBuildStats`` fields reported as counts.
BUILD_COUNTS = ("astar_expanded", "raycast_calls", "pocket_count",
                "oracle_entries", "fallback_cuts")


def _build(network, border_count: int, trace=None) -> RoadPartIndex:
    return build_index(network, border_count, oracle="auto", trace=trace)


def run(ctx, network, setup_times: List[float]) -> Dict:
    probes = [DPSQuery.q_query(w.vertices) for w in workloads.probe_windows(
        network, ctx.seed, 10 if ctx.smoke else PROBES)]
    scratch = os.path.join(ctx.out, "build")
    os.makedirs(scratch, exist_ok=True)
    durations: List[float] = []
    build_only: List[float] = []
    digests: List[str] = []
    started = time.perf_counter()
    while (len(durations) < MIN_REPEATS
           or time.perf_counter() - started + durations[-1]
           <= 1.1 * ctx.seconds):
        path = os.path.join(scratch, f"repeat-{len(durations)}.rpix")
        built = loaded = None  # free the previous repeat first
        t = time.perf_counter()
        built = _build(network, ctx.border_count)
        build_only.append(time.perf_counter() - t)
        built.save_binary(path)
        loaded = RoadPartIndex.load_binary(path, network)
        durations.append(time.perf_counter() - t)
        digests.append(sha256_file(path))
    peak_rss = vm_hwm_mb()

    problems = []
    if len(set(digests)) != 1:
        problems.append(f"{len(durations)} builds wrote"
                        f" {len(set(digests))} different files")
    answers = [roadpart_dps(loaded, q) for q in probes]
    for query, answer in zip(probes[:CHECKED_PROBES], answers):
        if roadpart_dps(built, query).vertices != answer.vertices:
            problems.append("a probe answer changed between the built and"
                            " the reloaded index")
        report = verify_dps(network, answer, query, max_sources=4,
                            seed=ctx.seed)
        if not report.ok:
            problems.append(f"probe answer is not distance preserving:"
                            f" {report.summary()}")
    metrics = {
        "setup_s": (median(setup_times), len(setup_times)),
        "p50_ms": (1000.0 * median(durations), len(durations)),
        "ops_per_s": (len(durations) / sum(durations), len(durations)),
        "peak_rss_mb": (peak_rss, 1),
        "dps_size_mean": (mean([a.size for a in answers]), len(answers)),
    }
    found: layers.Layers = {}
    recorder = None
    if ctx.trace:
        recorder = SpanRecorder()
        found = _traced_repeat(recorder, ctx, network, scratch,
                               median(build_only))
    for name in os.listdir(scratch):
        os.remove(os.path.join(scratch, name))
    return {"metrics": metrics, "layers": found, "problems": problems,
            "attempted": len(durations), "failed": 0,
            "extra": {"repeats": len(durations), "sha256": digests[0],
                      "build_s": build_only},
            "recorder": recorder, "oracle_kind": loaded.stats.oracle_kind}


def _add_tree(recorder: SpanRecorder, span, start: float, parent: int
              ) -> None:
    """Copy a build-trace span tree; children are laid end to end from
    their parent's start (the build trace records durations only)."""
    at = start
    for child in span.children:
        sid = recorder.add(f"build.{child.label}", at, at + child.seconds,
                           parent)
        _add_tree(recorder, child, at, sid)
        at += child.seconds


def _traced_repeat(recorder: SpanRecorder, ctx, network, scratch: str,
                   untraced_s: float) -> layers.Layers:
    path = os.path.join(scratch, "traced.rpix")
    trace = TraceRecorder()
    with recorder.span("build.repeat") as root:
        with recorder.span("build.build_index", root) as sid:
            begun = time.perf_counter()
            built = _build(network, ctx.border_count, trace=trace)
            build_s = time.perf_counter() - begun
        _add_tree(recorder, trace.root, begun, sid)
        with recorder.span("build.save_binary", root):
            t = time.perf_counter()
            built.save_binary(path)
            save_s = time.perf_counter() - t
        loads = []
        for _ in range(3):
            with recorder.span("build.load_binary", root):
                t = time.perf_counter()
                RoadPartIndex.load_binary(path, network)
                loads.append(time.perf_counter() - t)
    found: layers.Layers = {}
    for label, metric in SPANS.items():
        spans = [s for s in trace.root.walk() if s.label == label]
        found[f"core.roadpart.index.{metric}"] = (
            sum(s.seconds for s in spans), len(spans))
    for name in BUILD_COUNTS:
        found[f"core.roadpart.index.{name}"] = (
            getattr(built.stats, name), 1)
    found["core.roadpart.binfmt.save_s"] = (save_s, 1)
    found["core.roadpart.binfmt.load_ms"] = (1000.0 * median(loads),
                                             len(loads))
    found.update(layers.index_file(path))
    found["trace.overhead_ratio"] = ((build_s - untraced_s) / untraced_s, 1)
    return found
