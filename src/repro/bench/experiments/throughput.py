"""Query throughput: closed-batch driver and open-loop daemon latency.

The ROADMAP's "heavy traffic" scenario is many independent DPS queries
against one index.  This experiment pushes a fixed batch of Table II
EAST-S window queries through :func:`repro.serve.run_queries` at each
worker count and reports queries/sec.

:func:`run_arrival_rate` is the serving-tier counterpart
(``bench throughput --arrival-rate``): it starts a live
:class:`~repro.serve.daemon.DPSDaemon`, fires HTTP requests at a fixed
*open-loop* arrival rate -- request ``i`` departs at ``i/rate`` seconds
whatever happened to its predecessors, the way real traffic arrives --
and reports p50/p95/p99 response latency instead of batch wall-clock.
The request stream cycles a small query set, so the result-cache path
is exercised too, and the run finishes by scraping ``/metrics`` and
asserting the daemon's own counters match the bench's tallies
(requests, cache hits+misses, failures): the observability surface is
benchmarked *and* verified in one pass.

Two caveats keep this honest:

- answers are asserted identical across worker counts (the driver's
  byte-identity contract) -- the experiment can never "win" by
  answering differently;
- on a single-core container the ``jobs=2`` row shows fork overhead,
  not speedup, so no ``--check`` gate exists here; the row documents
  the scaling axis, the gains need real cores;
- with ``algorithm="blq"`` or ``"hull"`` the ``jobs=1`` row is not
  single-core either: each big enough query forks its own SSSP rounds
  over the usable CPUs (:mod:`repro.shortestpath.settle`), while
  queries in a ``jobs=2`` worker run their rounds serially, since pools
  never nest.  A live daemon answers them serially too: its threads
  keep every query from forking.

``inject=True`` (the CLI's ``bench throughput --inject``) additionally
pushes the same batch through a deterministic
:class:`~repro.serve.faults.FaultPlan` -- one worker crash, one
injected per-query exception -- and asserts the driver's blast-radius
contract: the poisoned query fails structurally, every other answer
stays byte-identical to the clean baseline.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bench.experiments.common import dataset_index, dataset_network
from repro.bench.metrics import median
from repro.bench.workloads import QDPS_EPSILONS, QDPSPoint
from repro.core.dps import DPSQuery
from repro.datasets.queries import window_query
from repro.obs.export import parse_metrics, percentile
from repro.serve import run_queries

THROUGHPUT_DATASET = "EAST-S"
THROUGHPUT_ALGORITHM = "roadpart"
THROUGHPUT_QUERY_COUNT = 8
THROUGHPUT_JOBS: Tuple[int, ...] = (1, 2)
THROUGHPUT_REPEATS = 3

#: Defaults of the open-loop mode: 40 requests at 20/s over 8 distinct
#: queries, so steady state repeats every query four more times than it
#: computes it (cache hit ratio 80%).
ARRIVAL_RATE = 20.0
ARRIVAL_REQUESTS = 40
ARRIVAL_UNIQUE_QUERIES = 8


@dataclass
class ThroughputMeasure:
    """One worker count's batch timings."""

    dataset: str
    algorithm: str
    jobs: int
    queries: int
    seconds: float         #: median batch wall-clock over the repeats
    samples: List[float] = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        return self.queries / self.seconds


def run_throughput(dataset: str = THROUGHPUT_DATASET,
                   algorithm: str = THROUGHPUT_ALGORITHM,
                   jobs_list: Optional[Sequence[int]] = None,
                   query_count: int = THROUGHPUT_QUERY_COUNT,
                   repeats: int = THROUGHPUT_REPEATS,
                   inject: bool = False,
                   ) -> List[ThroughputMeasure]:
    """Time one query batch at each worker count.

    The batch cycles the dataset's Table II ε sweep (content-derived
    seeds, offset per query so every window differs); every worker
    count answers the same batch and must return the same answers.
    ``inject=True`` runs one extra (untimed) faulted batch and asserts
    the blast-radius contract against the clean baseline.
    """
    network = dataset_network(dataset)
    index = dataset_index(dataset) if algorithm == "roadpart" else None
    epsilons = QDPS_EPSILONS[dataset]
    queries = []
    for i in range(query_count):
        eps = epsilons[i % len(epsilons)]
        point = QDPSPoint(dataset, eps)
        queries.append(DPSQuery.q_query(
            window_query(network, eps, seed=point.seed + i)))
    network.csr()  # built once and cached: not timed
    baseline = None
    measures: List[ThroughputMeasure] = []
    for jobs in (jobs_list or THROUGHPUT_JOBS):
        samples = []
        answers = None
        for _ in range(repeats):
            outcome = run_queries(algorithm, queries, network=network,
                                  index=index, jobs=jobs)
            samples.append(outcome.seconds)
            answers = [r.vertices for r in outcome.results]
        if baseline is None:
            baseline = answers
        elif answers != baseline:
            raise AssertionError(
                f"jobs={jobs} changed the batch answers")
        measures.append(ThroughputMeasure(dataset, algorithm, jobs,
                                          len(queries), median(samples),
                                          samples))
    if inject:
        _assert_fault_isolation(algorithm, queries, network, index,
                                max(jobs_list or THROUGHPUT_JOBS),
                                baseline)
    return measures


@dataclass
class ArrivalRateMeasure:
    """One open-loop run against a live daemon."""

    dataset: str
    algorithm: str
    rate: float               #: requested arrivals/sec
    requests: int
    unique_queries: int
    seconds: float            #: first departure to last response
    latencies: List[float]    #: per-request response latency (seconds)
    cache_hits: int
    cache_misses: int
    failures: int

    def latency_percentile_ms(self, q: float) -> float:
        return percentile(self.latencies, q) * 1000.0

    @property
    def achieved_rps(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.requests / self.seconds


def run_arrival_rate(dataset: str = THROUGHPUT_DATASET,
                     algorithm: str = THROUGHPUT_ALGORITHM,
                     rate: float = ARRIVAL_RATE,
                     request_count: int = ARRIVAL_REQUESTS,
                     unique_queries: int = ARRIVAL_UNIQUE_QUERIES,
                     cache_size: int = 256,
                     ) -> ArrivalRateMeasure:
    """Open-loop latency against a live daemon.

    Starts an in-process :class:`~repro.serve.daemon.DPSDaemon` on an
    ephemeral port, departs ``request_count`` HTTP requests on the
    fixed schedule ``t_i = i / rate`` (each on its own thread, so a
    slow response never delays the next departure -- the open-loop
    property that separates latency-under-load from batch wall-clock),
    and returns per-request latencies.

    The request stream cycles ``unique_queries`` distinct windows, so
    with the default sizes most requests hit the result cache.  Before
    shutdown the daemon's ``/metrics`` is scraped and cross-checked
    against the bench's own tallies; any mismatch raises, making the
    bench a live verification of the observability surface.
    """
    from repro.serve.daemon import DPSDaemon

    network = dataset_network(dataset)
    index = dataset_index(dataset) if algorithm == "roadpart" else None
    epsilons = QDPS_EPSILONS[dataset]
    bodies: List[bytes] = []
    for i in range(unique_queries):
        eps = epsilons[i % len(epsilons)]
        point = QDPSPoint(dataset, eps)
        query = window_query(network, eps, seed=point.seed + i)
        bodies.append(json.dumps({"Q": sorted(query)}).encode("ascii"))
    daemon = DPSDaemon(network, index, algorithm=algorithm,
                       cache_size=cache_size, port=0)
    daemon.start()
    try:
        url = daemon.base_url + "/query"
        latencies: List[Optional[float]] = [None] * request_count
        statuses: List[int] = [0] * request_count
        begun = time.perf_counter()

        def fire(i: int) -> None:
            delay = i / rate - (time.perf_counter() - begun)
            if delay > 0:
                time.sleep(delay)
            request = urllib.request.Request(
                url, data=bodies[i % len(bodies)],
                headers={"Content-Type": "application/json"},
                method="POST")
            departed = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=60) as resp:
                    resp.read()
                    statuses[i] = resp.status
            except urllib.error.HTTPError as exc:
                exc.read()
                statuses[i] = exc.code
            latencies[i] = time.perf_counter() - departed

        threads = [threading.Thread(target=fire, args=(i,), daemon=True)
                   for i in range(request_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - begun
        with urllib.request.urlopen(daemon.base_url + "/metrics",
                                    timeout=30) as resp:
            metrics = parse_metrics(resp.read().decode("utf-8"))
    finally:
        daemon.stop()
    ok = sum(1 for s in statuses if s == 200)
    failures = request_count - ok
    hits = int(metrics["repro_cache_hits_total"])
    misses = int(metrics["repro_cache_misses_total"])
    checks = [
        ("repro_requests_total", int(metrics["repro_requests_total"]),
         request_count),
        ("cache hits+misses", hits + misses, request_count),
        ("repro_failures_total", int(metrics["repro_failures_total"]),
         failures),
        ("latency sample count",
         int(metrics["repro_request_latency_seconds_count"]),
         request_count),
    ]
    for name, reported, expected in checks:
        if reported != expected:
            raise AssertionError(
                f"/metrics {name} is {reported}, bench tallied"
                f" {expected}: the daemon's counters drifted from its"
                f" traffic")
    return ArrivalRateMeasure(dataset, algorithm, rate, request_count,
                              len(bodies), seconds,
                              [lat for lat in latencies
                               if lat is not None],
                              hits, misses, failures)


def _assert_fault_isolation(algorithm, queries, network, index, jobs,
                            baseline) -> None:
    """Run the batch with one worker crash and one injected exception;
    assert only the poisoned query fails and the rest match
    ``baseline`` exactly."""
    from repro.serve import QueryFailure
    from repro.serve.faults import FaultPlan
    plan = FaultPlan(die_at={0},
                     raise_at={1: "injected by throughput --inject"})
    outcome = run_queries(algorithm, queries, network=network,
                          index=index, jobs=jobs, faults=plan)
    if len(outcome.results) != len(queries):
        raise AssertionError(
            f"faulted batch returned {len(outcome.results)} entries for"
            f" {len(queries)} queries")
    failed = [i for i, r in enumerate(outcome.results)
              if isinstance(r, QueryFailure)]
    if failed != [1]:
        raise AssertionError(
            f"expected exactly query 1 to fail, got {failed}")
    for i, r in enumerate(outcome.results):
        if i == 1:
            continue
        if r.vertices != baseline[i]:
            raise AssertionError(
                f"fault injection changed the answer to query {i}")
