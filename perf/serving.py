"""The ``serve-hot`` and ``serve-cold`` workloads.

Both drive a ``python -m repro serve`` subprocess on the binary
(mmap-loaded) index with the CLI's default engine, oracle and cache,
over persistent connections: an open loop at a fixed rate, then a
closed loop on two connections.  Correctness is checked after the load:
every response to one request carries the same bytes (so hits equal
misses), ``/metrics`` agrees with the responses seen, and a seeded
sample of answers equals the in-process answer on the same index and
passes :func:`repro.core.verify.verify_dps`.

The traced run adds two measurements after the load: solo requests on
an idle daemon, and an in-process replay of the request stream through
:class:`~repro.serve.daemon.DPSDaemon` with spans around each layer.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.ble import bl_efficiency
from repro.core.dps import DPSQuery
from repro.core.roadpart.index import RoadPartIndex
from repro.core.roadpart.query import roadpart_dps
from repro.core.verify import verify_dps
from repro.graph.io import read_dimacs
from repro.obs import QueryStats
from repro.serve.cache import canonical_key
from repro.serve.daemon import DPSDaemon

from perf import layers, loadgen, workloads
from perf.measure import mean, median, percentile, tail_percentiles, vm_hwm_mb
from perf.spans import SpanRecorder

#: Share of ``--seconds`` spent in the open loop; the rest is the
#: closed loop.
OPEN_SHARE = 0.7
#: Daemon cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 3
#: Distinct answers checked against the in-process reference.
SAMPLE_ANSWERS = 64
#: Requests sent one at a time to an idle daemon in the traced run,
#: once spaced and once back to back.
SOLO_REQUESTS = 30
#: Idle time before each spaced solo request; longer than the 40 ms
#: delayed-ACK timer, so a client that pauses between requests is seen.
SOLO_GAP_S = 0.1
#: Lateness above this (at the p90 the sample supports) marks the load
#: generator, not the daemon, as the bottleneck.
MAX_LATENESS_MS = 2.0


@dataclass(frozen=True)
class ServeSpec:
    name: str
    rate: float           #: open-loop arrivals per second
    hot_pool: int = 0     #: Zipf pool size (serve-hot)
    closed_pool: int = 0  #: distinct closed-loop requests (serve-cold)


HOT = ServeSpec("serve-hot", rate=25.0, hot_pool=200)
COLD = ServeSpec("serve-cold", rate=15.0, closed_pool=300)


def _plan(spec: ServeSpec, network, ctx, open_count: int
          ) -> workloads.ServePlan:
    if spec.hot_pool:
        pool = min(spec.hot_pool, 40) if ctx.smoke else spec.hot_pool
        # Enough Zipf draws for any closed-loop rate the daemon reaches.
        return workloads.hot_plan(network, ctx.seed, pool, open_count,
                                  closed_count=20000,
                                  solo_count=SOLO_REQUESTS)
    return workloads.cold_plan(network, ctx.seed, open_count,
                               spec.closed_pool, SOLO_REQUESTS)


def _answer_in_process(algorithm: str, network, index, query: DPSQuery,
                       stats=None):
    """The answer the daemon's entry point gives, with CLI defaults."""
    if algorithm == "roadpart":
        return roadpart_dps(index, query, stats=stats)
    return bl_efficiency(network, query, stats=stats)


def run(spec: ServeSpec, ctx) -> Dict:
    network = read_dimacs(ctx.graph, ctx.coords)
    index = RoadPartIndex.load_binary(ctx.index, network)
    open_s = ctx.seconds * OPEN_SHARE
    closed_s = ctx.seconds - open_s
    open_count = max(1, round(spec.rate * open_s))
    plan = _plan(spec, network, ctx, open_count)
    argv = [sys.executable, "-m", "repro", "serve", "--graph", ctx.graph,
            "--coords", ctx.coords, "--index", ctx.index,
            "--host", loadgen.HOST, "--port", "0"]
    daemon_log = os.path.join(ctx.out, f"{spec.name}.daemon.log")
    log = loadgen.ResponseLog()
    problems: List[str] = []

    starts: List[float] = []
    for attempt in range(COLD_STARTS):
        daemon = loadgen.DaemonProcess(argv, ctx.env, daemon_log)
        starts.append(daemon.startup_s)
        if attempt < COLD_STARTS - 1:
            daemon.stop()
    with daemon:
        warm_failed = 0
        for body in plan.warm:
            # Untimed cache fill; a fresh connection per request keeps it
            # off the keep-alive path the load measures.
            resp = loadgen.Client(daemon.port).post(body, close=True)
            log.note(body, resp)
            warm_failed += resp.status != 200
        if warm_failed:
            problems.append(f"{warm_failed} warm-up requests failed")
        before = daemon.metrics()
        open_records = loadgen.open_loop(daemon.port, plan.open_bodies,
                                         spec.rate, log)
        closed_records, closed_elapsed = loadgen.closed_loop(
            daemon.port, plan.closed_bodies, closed_s, log)
        after = daemon.metrics()
        peak_rss = vm_hwm_mb(daemon.proc.pid)
        solo = _solo(daemon.port, plan, problems) if ctx.trace else {}

    timed = open_records + closed_records
    failed = sum(1 for r in timed if r.status != 200)
    problems += _check_metrics(before, after, timed)
    if log.mismatches:
        problems.append(f"{log.mismatches} responses differ from the first"
                        " response to the same request")
    sizes = []
    for algorithm, window in plan.answers:
        body = log.first.get(workloads.request_body(algorithm, window))
        if body is not None:
            sizes.append(json.loads(body)["size"])
    problems += _check_answers(plan, log, network, index, ctx.seed)

    latencies = [1000.0 * r.latency for r in open_records]
    lateness = [1000.0 * r.lateness for r in open_records
                if r.lateness is not None]
    late_tail = (percentile(lateness, 90) if len(lateness) >= 100
                 else max(lateness, default=0.0))
    closed_ok = sum(1 for r in closed_records if r.status == 200)
    metrics = {
        "setup_s": (median(starts), len(starts)),
        "p50_ms": (median(latencies), len(latencies)),
        "ops_per_s": (closed_ok / closed_elapsed, closed_ok),
        "peak_rss_mb": (peak_rss, 1),
        "dps_size_mean": (mean(sizes), len(sizes)),
    }
    d = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    lookups = d["repro_cache_hits_total"] + d["repro_cache_misses_total"]
    found = {
        "serve.cache.hit_ratio": (
            d["repro_cache_hits_total"] / lookups if lookups else 0.0,
            int(lookups)),
        "serve.cache.evictions": (d["repro_cache_evictions_total"], 1),
        "loadgen.late_p90_ms": (late_tail, len(lateness)),
    }
    extra = {
        "open_loop": {"rate": spec.rate, "requests": len(open_records),
                      "latency_ms": {"p50": median(latencies),
                                     **tail_percentiles(latencies)},
                      "late_p90_ms": late_tail,
                      "valid": late_tail <= MAX_LATENESS_MS},
        "closed_loop": {"seconds": closed_elapsed,
                        "requests": len(closed_records), "ok": closed_ok},
        "cold_starts_s": starts,
        "warm_requests": len(plan.warm),
        "distinct_answers": len(sizes),
    }
    if late_tail > MAX_LATENESS_MS:
        print(f"warning: {spec.name}: load generator dispatched"
              f" {late_tail:.2f} ms late (p90); the run is invalid",
              file=sys.stderr)
    recorder = None
    if ctx.trace:
        recorder = SpanRecorder()
        _loadgen_spans(recorder, open_records, closed_records)
        found.update(_replay(recorder, plan, network, index, solo,
                             latencies))
        found.update(_binfmt_layers(ctx, network))
    return {"metrics": metrics, "layers": found, "problems": problems,
            "attempted": len(timed), "failed": failed, "extra": extra,
            "recorder": recorder, "oracle_kind": index.stats.oracle_kind}


def _check_metrics(before, after, timed) -> List[str]:
    """``/metrics`` deltas over the timed phases must match what the
    load generator saw (``X-Repro-Cache`` headers included)."""
    def delta(name: str) -> int:
        return int(after.get(name, 0.0) - before.get(name, 0.0))

    answered = [r for r in timed if r.status != 0]
    hits = sum(1 for r in answered if r.cache == "hit")
    misses = sum(1 for r in answered if r.cache == "miss")
    checks = [("repro_requests_total", delta("repro_requests_total"),
               len(answered)),
              ("repro_cache_hits_total", delta("repro_cache_hits_total"),
               hits),
              ("repro_cache_misses_total", delta("repro_cache_misses_total"),
               misses)]
    return [f"/metrics {name} moved by {got}, the load saw {want}"
            for name, got, want in checks if got != want]


def _check_answers(plan, log, network, index, seed: int) -> List[str]:
    """A seeded sample of distinct HTTP answers must equal the
    in-process answer on the same index and preserve distances."""
    problems = []
    rng = random.Random(f"sample:{seed}")
    answers = plan.answers
    for algorithm, window in rng.sample(answers,
                                        min(SAMPLE_ANSWERS, len(answers))):
        body = log.first.get(workloads.request_body(algorithm, window))
        if body is None:
            problems.append(f"no answer to a sampled {algorithm} request")
            continue
        got = json.loads(body)
        query = DPSQuery.q_query(window.vertices)
        want = _answer_in_process(algorithm, network, index, query)
        if (got["vertices"] != sorted(want.vertices)
                or got["algorithm"] != want.algorithm):
            problems.append(f"HTTP {algorithm} answer ({got['size']}"
                            f" vertices) differs from the in-process"
                            f" answer ({want.size})")
            continue
        report = verify_dps(network, want, query, max_sources=4, seed=seed)
        if not report.ok:
            problems.append(f"{algorithm} answer is not distance"
                            f" preserving: {report.summary()}")
    return problems


def _solo(port: int, plan, problems: List[str]) -> Dict[str, List[float]]:
    """Milliseconds of requests sent one at a time to the idle daemon:
    spaced by :data:`SOLO_GAP_S`, then back to back on one connection."""
    client = loadgen.Client(port)
    out: Dict[str, List[float]] = {"spaced": [], "back_to_back": []}
    try:
        for kind, bodies in (("spaced", plan.solo_spaced),
                             ("back_to_back", plan.solo_back_to_back)):
            for body in bodies:
                if kind == "spaced":
                    time.sleep(SOLO_GAP_S)
                t = time.perf_counter()
                resp = client.post(body)
                out[kind].append(1000.0 * (time.perf_counter() - t))
                if resp.status != 200:
                    problems.append(f"solo request answered {resp.status}")
    finally:
        client.close()
    return out


def _loadgen_spans(recorder: SpanRecorder, open_records, closed_records
                   ) -> None:
    for r in open_records:
        root = recorder.add("loadgen.request", r.due, r.done,
                            request=r.index)
        recorder.add("loadgen.queue", r.due, r.dispatched, root, r.index)
        recorder.add("http.roundtrip", r.dispatched, r.done, root, r.index)
    for r in closed_records:
        recorder.add("loadgen.closed_request", r.dispatched, r.done,
                     request=-1 - r.index)


def _replay(recorder: SpanRecorder, plan, network, index,
            solo: Dict[str, List[float]], latencies: List[float]
            ) -> layers.Layers:
    """Replay the warm-up and open-loop stream in process, with spans at
    each layer boundary, and derive the daemon/cache/compute layers."""
    daemon = DPSDaemon(network, index)
    computed: List[Tuple[str, QueryStats, float]] = []
    stream = plan.warm + plan.open_bodies
    for n, body in enumerate(stream):
        with recorder.span("daemon.handle", request=n) as root:
            with recorder.span("daemon.parse_request", root, n):
                req = daemon.parse_request(body)
            with recorder.span("cache.lookup", root, n):
                key = canonical_key(req.algorithm, req.query,
                                    engine=req.engine,
                                    deadline_ms=req.deadline_ms,
                                    fallback=req.fallback,
                                    oracle=daemon.oracle)
                cached = daemon.cache.get(key)
            if cached is not None:
                continue
            qstats = QueryStats()
            with recorder.span(f"compute.{req.algorithm}", root, n) as cid:
                started = time.perf_counter()
                result = _answer_in_process(req.algorithm, network, index,
                                            req.query, stats=qstats)
                took = time.perf_counter() - started
            recorder.add_sequence(qstats.phases, req.algorithm, started,
                                  cid, n)
            with recorder.span("cache.put", root, n):
                daemon.cache.put(key, json.dumps(
                    sorted(result.vertices)).encode("ascii"))
            computed.append((req.algorithm, qstats, took))
    # The solo bodies again, in the live order, through the daemon's own
    # request pipeline: the difference to the HTTP latency is transport.
    handled: Dict[str, List[float]] = {"spaced": [], "back_to_back": []}
    for kind, bodies in (("spaced", plan.solo_spaced),
                         ("back_to_back", plan.solo_back_to_back)):
        for body in bodies:
            t = time.perf_counter()
            daemon.handle_query(body)
            handled[kind].append(1000.0 * (time.perf_counter() - t))

    spaced, b2b = solo["spaced"], solo["back_to_back"]
    found: layers.Layers = {
        "serve.daemon.transport_ms": (
            median(b2b) - median(handled["back_to_back"]), len(b2b)),
        "serve.daemon.transport_spaced_ms": (
            median(spaced) - median(handled["spaced"]), len(spaced)),
        "serve.daemon.wait_ms": (median(latencies) - median(spaced),
                                 len(latencies)),
    }
    for name, span in (("parse_ms", "daemon.parse_request"),
                       ("handle_ms", "daemon.handle")):
        durs = recorder.durations(span)
        found[f"serve.daemon.{name}"] = (1000.0 * median(durs), len(durs))
    lookups = recorder.durations("cache.lookup")
    found["serve.cache.get_us"] = (1e6 * median(lookups), len(lookups))
    roadpart = [(q, t) for a, q, t in computed if a == "roadpart"]
    found.update(layers.roadpart_means([q for q, _ in roadpart],
                                       [t for _, t in roadpart]))
    ble = [1000.0 * t for a, _, t in computed if a == "ble"]
    found["core.ble.compute_ms"] = (mean(ble), len(ble))
    found.update(layers.counter_means([q for _, q, _ in computed]))
    return found


def _binfmt_layers(ctx, network) -> layers.Layers:
    """Load time (median of three mmap loads) and one re-save of the
    serving index, the daemon's start-up share of the format layer."""
    loads = []
    for _ in range(3):
        t = time.perf_counter()
        index = RoadPartIndex.load_binary(ctx.index, network)
        loads.append(time.perf_counter() - t)
    scratch = os.path.join(ctx.out, "resave.rpix")
    t = time.perf_counter()
    index.save_binary(scratch)
    save_s = time.perf_counter() - t
    os.remove(scratch)
    found = {"core.roadpart.binfmt.load_ms": (1000.0 * median(loads), 3),
             "core.roadpart.binfmt.save_s": (save_s, 1)}
    found.update(layers.index_file(ctx.index))
    return found
