"""Batched-query driver: fan independent DPS queries over processes.

DPS queries are embarrassingly parallel -- each one only *reads* the
network (and, for RoadPart, the offline index) -- so a batch scales
across workers with zero coordination.  :func:`run_queries` answers a
batch either serially or over a fork-based ``ProcessPoolExecutor``:

- the network, its CSR arrays and the index are inherited copy-on-write
  (no per-task pickling; the same ``_CTX`` idiom as the parallel index
  build in :mod:`repro.core.roadpart.parallel`);
- scratch arenas are per-process by construction -- each worker's
  searches acquire from its own (copy-on-write) pool, and
  :class:`repro.graph.csr.CSRGraph` drops the pool when a CSR is
  pickled, so no arena state ever crosses a process boundary;
- results come back in query order, and the answers are **byte-identical
  to the serial loop** (each query is a deterministic function of the
  network/index -- pinned by ``tests/test_serve.py``).  Parallelism
  changes only wall-clock time, which is what the ``bench throughput``
  experiment reports as queries/sec.

The driver is *fault tolerant* at three levels, each with a blast
radius of one query (pinned by ``tests/test_serve_faults.py``):

- **Per-query error isolation.**  A query that raises does not abort
  the batch; its slot in ``results`` holds a structured
  :class:`QueryFailure` instead of a :class:`DPSResult`, so
  ``BatchOutcome.results`` always has one entry per query.
- **Deadlines with algorithm fallback.**  ``deadline_ms`` gives every
  query a wall-clock budget, threaded into the SSSP engines (see
  :mod:`repro.shortestpath.deadline`).  A blown budget triggers the
  ``fallback`` cascade (default: the cheaper BL-E), each attempt with
  a fresh budget; ``BatchOutcome.fallbacks`` records which algorithm
  actually answered.
- **Worker-crash recovery.**  A worker process dying (OOM kill,
  segfault) loses only the chunks that had not completed; the parent
  retries them serially, bounded by ``max_retries``.

``faults`` accepts a :class:`~repro.serve.faults.FaultPlan` that
triggers each failure path deterministically, for tests and
``bench throughput --inject``.

Per-query :class:`~repro.obs.stats.QueryStats` can be collected and are
merged into one batch-level stats object by :func:`merge_query_stats`
(phase seconds, counters and count-like extras sum across queries;
gauge-like extras such as BL-E's radius aggregate as min/max/mean;
``seconds`` becomes the total *work* time, which exceeds wall-clock
once ``jobs > 1``).

Exposed on the CLI as ``repro query --batch N --jobs N
[--deadline-ms B] [--fallback ALGO] [--max-retries R]``.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.ble import bl_efficiency
from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery, DPSResult
from repro.core.hull import convex_hull_dps
from repro.core.roadpart.index import RoadPartIndex
from repro.core.roadpart.parallel import fork_available
from repro.core.roadpart.query import roadpart_dps
from repro.errors import DeadlineExceeded
from repro.graph.network import RoadNetwork
from repro.obs.stats import QueryStats
from repro.serve.faults import FaultPlan
from repro.shortestpath.deadline import Deadline

#: The DPS algorithms the driver dispatches to.
ALGORITHMS = ("roadpart", "blq", "ble", "hull")

#: Fallback cascade applied when a per-query deadline is set and the
#: primary algorithm blows its budget.  BL-E is the terminal fallback
#: everywhere: a single bounded Dijkstra, the cheapest correct DPS
#: available (Theorem 1), so degradation trades quality (a larger DPS)
#: for latency -- never correctness.
DEFAULT_FALLBACK: Dict[str, Tuple[str, ...]] = {
    "roadpart": ("ble",),
    "blq": ("ble",),
    "hull": ("ble",),
    "ble": (),
}

#: Extras that are additive event counts: summing them across a batch is
#: meaningful (total examined bridges, total SSSP rounds, ...).  The
#: ``cache_*`` trio comes from the serving daemon's result cache: hits
#: and evictions are events, so merged stats that carry them must sum
#: them -- never aggregate them as min/max/mean gauges (a cache hit
#: contributes *no* phase timings or engine counters; ``cache_hits`` is
#: the honest record of the answers the merged totals do not cover).
COUNT_EXTRAS = frozenset({
    "b", "bv", "border", "sssp_rounds", "regions_kept", "query_regions",
    "refined", "failures", "fallbacks", "retries",
    "cache_hits", "cache_misses", "cache_evictions",
    "oracle_hits", "oracle_fallbacks",
})

#: Extras that *identify* rather than measure (vertex ids); any
#: aggregate of them is nonsense, so the merge drops them.
IDENTITY_EXTRAS = frozenset({"center_vertex"})


@dataclass
class QueryFailure:
    """Structured record of one query that could not be answered.

    Takes the failed query's slot in :attr:`BatchOutcome.results` so
    the batch keeps its one-entry-per-query shape.  ``algorithm`` is
    the last algorithm attempted (the end of the fallback cascade when
    a deadline was set).
    """

    error_type: str
    message: str
    elapsed: float
    algorithm: str


@dataclass
class BatchOutcome:
    """Everything one batch run produced.

    ``seconds`` is the batch wall-clock (queue to last answer);
    ``per_query`` holds one :class:`QueryStats` per query (None entries
    when stats collection was off) and ``stats`` their merged sum.
    ``jobs`` is the *requested* worker count; ``effective_jobs`` the
    count actually used (1 when the driver fell back to the serial
    loop: single query, ``jobs=1``, or no ``fork`` start method).
    ``fallbacks`` has one entry per query: None when the primary
    algorithm answered, else the fallback algorithm that did.
    ``retries`` counts chunks re-run serially after a worker crash.
    """

    algorithm: str
    jobs: int
    results: List[Union[DPSResult, QueryFailure]]
    seconds: float
    per_query: List[Optional[QueryStats]]
    stats: Optional[QueryStats]
    effective_jobs: int = 1
    fallbacks: List[Optional[str]] = field(default_factory=list)
    retries: int = 0

    @property
    def failures(self) -> List[QueryFailure]:
        """The queries that failed, in query order."""
        return [r for r in self.results if isinstance(r, QueryFailure)]

    @property
    def ok_count(self) -> int:
        """How many queries produced a :class:`DPSResult`."""
        return sum(1 for r in self.results
                   if not isinstance(r, QueryFailure))

    @property
    def queries_per_second(self) -> float:
        """The throughput measure ``bench throughput`` reports."""
        if self.seconds <= 0.0:
            return 0.0
        return len(self.results) / self.seconds


class StatsAccumulator:
    """Incrementally merge per-query stats into one running total.

    The long-lived daemon cannot hold every request's
    :class:`QueryStats` and re-merge on each ``/metrics`` scrape, so
    this class keeps the merge *state* -- summed phases/counters plus
    per-gauge ``(count, sum, min, max)`` -- and lets callers
    :meth:`add` one query at a time and :meth:`snapshot` the merged
    view whenever asked.  :func:`merge_query_stats` is now a one-shot
    wrapper over it, so batch driver and daemon share one set of
    aggregation rules.

    The cached-answer rule lives *outside* this class by design: a
    cache hit ran no phases and no searches, so the daemon must **not**
    call :meth:`add` for it -- re-summing the stored stats would
    double-count work that never happened.  Hits are recorded in the
    separate ``cache_hits`` counter (a :data:`COUNT_EXTRAS` member, so
    any downstream merge keeps summing it honestly).
    """

    def __init__(self) -> None:
        self._merged = QueryStats()
        #: gauge key -> [count, sum, min, max]
        self._gauges: Dict[str, List[float]] = {}
        self.count = 0  #: queries accumulated

    def add(self, qs: QueryStats) -> None:
        """Fold one computed query's stats into the running totals."""
        merged = self._merged
        merged.algorithm = qs.algorithm or merged.algorithm
        merged.seconds += qs.seconds
        for label, secs in qs.phases.items():
            merged.phases[label] = merged.phases.get(label, 0.0) + secs
        merged.counters.merge(qs.counters)
        merged.result_size += qs.result_size
        merged.network_size = qs.network_size or merged.network_size
        for key, value in qs.extras.items():
            if not isinstance(value, (int, float)):
                continue
            if key in IDENTITY_EXTRAS:
                continue
            if key in COUNT_EXTRAS:
                merged.extras[key] = merged.extras.get(key, 0) + value
            else:
                state = self._gauges.get(key)
                value = float(value)
                if state is None:
                    self._gauges[key] = [1, value, value, value]
                else:
                    state[0] += 1
                    state[1] += value
                    state[2] = min(state[2], value)
                    state[3] = max(state[3], value)
        self.count += 1

    def snapshot(self) -> QueryStats:
        """Return an independent merged :class:`QueryStats` (safe for
        the caller to annotate further)."""
        merged = self._merged
        out = QueryStats(algorithm=merged.algorithm,
                         seconds=merged.seconds,
                         phases=dict(merged.phases),
                         result_size=merged.result_size,
                         network_size=merged.network_size,
                         extras=dict(merged.extras))
        out.counters.merge(merged.counters)
        for key, (count, total, low, high) in self._gauges.items():
            out.extras[f"{key}_min"] = low
            out.extras[f"{key}_max"] = high
            out.extras[f"{key}_mean"] = total / count
        return out


def merge_query_stats(stats_list: Iterable[QueryStats]) -> QueryStats:
    """Sum per-query stats into one batch-level :class:`QueryStats`.

    Phase seconds, counters, ``seconds`` and ``result_size``
    accumulate.  Extras split three ways:

    - **counts** (:data:`COUNT_EXTRAS`: ``b``, ``bv``, ``border``,
      ``sssp_rounds``, ``cache_hits``, ...) sum, so e.g. the merged
      ``b`` is the batch's total examined bridges;
    - **identities** (:data:`IDENTITY_EXTRAS`: ``center_vertex``) are
      dropped -- a sum of vertex ids means nothing;
    - everything else numeric is a **gauge** (e.g. BL-E's ``radius``)
      and aggregates as ``<key>_min`` / ``<key>_max`` / ``<key>_mean``
      instead of a misleading sum.

    ``algorithm``/``network_size`` are taken from the inputs (identical
    across a batch by construction).  Stats for *cached* answers must
    not be passed here at all -- see :class:`StatsAccumulator`.
    """
    acc = StatsAccumulator()
    for qs in stats_list:
        acc.add(qs)
    return acc.snapshot()


def _dispatch(algorithm: str, network: RoadNetwork,
              index: Optional[RoadPartIndex], query: DPSQuery,
              engine: str, qstats: Optional[QueryStats],
              deadline: Optional[Deadline],
              oracle: str = "auto") -> DPSResult:
    """Run one algorithm over one query (may raise)."""
    if algorithm == "roadpart":
        return roadpart_dps(index, query, stats=qstats, engine=engine,
                            deadline=deadline, oracle=oracle)
    if algorithm == "blq":
        return bl_quality(network, query, stats=qstats, engine=engine,
                          deadline=deadline)
    if algorithm == "ble":
        return bl_efficiency(network, query, stats=qstats, engine=engine,
                             deadline=deadline)
    # "hull" -- run_queries validated the name already
    return convex_hull_dps(network, query, stats=qstats, engine=engine,
                           deadline=deadline)


def _answer_one(algorithm: str, network: RoadNetwork,
                index: Optional[RoadPartIndex], query: DPSQuery,
                engine: str, want_stats: bool,
                deadline_s: Optional[float] = None,
                fallback: Sequence[str] = (),
                faults: Optional[FaultPlan] = None,
                qindex: Optional[int] = None,
                oracle: str = "auto",
                ) -> Tuple[Union[DPSResult, QueryFailure],
                           Optional[QueryStats], Optional[str]]:
    """Answer a single query; per-query failures never escape.

    Returns ``(result_or_failure, stats, fallback_used)``.  With a
    deadline, each algorithm of the cascade ``[algorithm, *fallback]``
    gets a *fresh* budget; a blown budget moves down the cascade, any
    other exception fails the query immediately (a deterministic error
    would recur under every algorithm's input validation, and a genuine
    bug should surface, not be papered over).  ``stats`` describe the
    attempt that produced the returned result or failure.
    """
    cascade = [algorithm, *fallback]
    started = time.perf_counter()
    qstats: Optional[QueryStats] = None
    last_exc: Optional[BaseException] = None
    last_algo = algorithm
    for attempt, algo in enumerate(cascade):
        qstats = QueryStats() if want_stats else None
        deadline = (Deadline.after(deadline_s)
                    if deadline_s is not None else None)
        try:
            if attempt == 0 and faults is not None and qindex is not None:
                faults.on_query(qindex)
            result = _dispatch(algo, network, index, query, engine,
                               qstats, deadline, oracle=oracle)
            return result, qstats, (algo if attempt > 0 else None)
        except DeadlineExceeded as exc:
            last_exc, last_algo = exc, algo
            continue
        except Exception as exc:
            elapsed = time.perf_counter() - started
            return (QueryFailure(type(exc).__name__, str(exc), elapsed,
                                 algo),
                    qstats, None)
    elapsed = time.perf_counter() - started
    return (QueryFailure(type(last_exc).__name__, str(last_exc), elapsed,
                         last_algo),
            qstats, None)


#: Worker input, inherited via fork copy-on-write.  Set by
#: :func:`run_queries` immediately before the executor is created and
#: cleared when the batch is done.
_CTX: Dict[str, object] = {}


def _batch_worker(indices: List[int]):
    """Answer one chunk of query indices; returns
    ``(i, result, stats, fallback_used)`` tuples so the parent can
    reassemble in query order."""
    queries: List[DPSQuery] = _CTX["queries"]  # type: ignore[assignment]
    out = []
    for i in indices:
        result, qstats, used = _answer_one(
            _CTX["algorithm"], _CTX["network"],  # type: ignore[arg-type]
            _CTX["index"], queries[i],  # type: ignore[arg-type]
            _CTX["engine"], _CTX["want_stats"],  # type: ignore[arg-type]
            deadline_s=_CTX["deadline_s"],  # type: ignore[arg-type]
            fallback=_CTX["fallback"],  # type: ignore[arg-type]
            faults=_CTX["faults"], qindex=i,  # type: ignore[arg-type]
            oracle=_CTX["oracle"])  # type: ignore[arg-type]
        out.append((i, result, qstats, used))
    return out


def run_queries(algorithm: str, queries: Iterable[DPSQuery],
                network: Optional[RoadNetwork] = None,
                index: Optional[RoadPartIndex] = None,
                jobs: int = 1, engine: str = "flat",
                collect_stats: bool = False,
                deadline_ms: Optional[float] = None,
                fallback: Optional[Sequence[str]] = None,
                max_retries: int = 2,
                faults: Optional[FaultPlan] = None,
                oracle: str = "auto") -> BatchOutcome:
    """Answer a batch of independent DPS queries, optionally in parallel.

    ``algorithm`` is one of :data:`ALGORITHMS`; ``roadpart`` requires
    ``index`` (its network is used unless ``network`` overrides), the
    rest require ``network``.  ``jobs > 1`` fans the queries over a
    fork-based process pool (round-robin chunks, answers reassembled in
    query order); with one query, ``jobs=1`` or no ``fork`` start method
    the serial loop runs instead.  Results are identical either way.

    ``deadline_ms`` gives every query a wall-clock budget; a query that
    blows it degrades down the ``fallback`` cascade (default
    :data:`DEFAULT_FALLBACK`, pass ``()`` to disable) before failing.
    Failures of any kind surface as :class:`QueryFailure` entries, never
    as exceptions; chunks lost to a worker crash are retried serially in
    the parent, up to ``max_retries`` lost chunks per batch.  ``faults``
    injects deterministic failures (see :mod:`repro.serve.faults`).
    ``oracle`` is the RoadPart bridge-domain oracle policy
    (``'auto'``/``'none'``, see
    :mod:`repro.shortestpath.oracle`); non-RoadPart algorithms ignore
    it.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    # Validate once for the whole batch: unknown names raise here, not
    # inside a worker, where they would surface as N QueryFailures.
    from repro.shortestpath.flat import resolve_engine
    engine = resolve_engine(engine)
    if algorithm == "roadpart":
        if index is None:
            raise ValueError("algorithm 'roadpart' needs index=")
        if network is None:
            network = index.network
    elif network is None:
        raise ValueError(f"algorithm {algorithm!r} needs network=")
    if fallback is None:
        fallback_seq = (DEFAULT_FALLBACK[algorithm]
                        if deadline_ms is not None else ())
    else:
        fallback_seq = tuple(fallback)
    for name in fallback_seq:
        if name not in ALGORITHMS:
            raise ValueError(
                f"unknown fallback algorithm {name!r};"
                f" choose from {ALGORITHMS}")
        if name == "roadpart" and index is None:
            raise ValueError("fallback 'roadpart' needs index=")
    deadline_s = deadline_ms / 1000.0 if deadline_ms is not None else None
    query_list = list(queries)
    n = len(query_list)
    results: List[Optional[Union[DPSResult, QueryFailure]]] = [None] * n
    per_query: List[Optional[QueryStats]] = [None] * n
    fallbacks: List[Optional[str]] = [None] * n
    retries = 0
    effective_jobs = 1
    started = time.perf_counter()
    if jobs > 1 and n > 1 and fork_available():
        global _CTX
        network.csr()  # build once pre-fork; workers inherit it COW
        _CTX = {"algorithm": algorithm, "network": network, "index": index,
                "queries": query_list, "engine": engine,
                "want_stats": collect_stats, "deadline_s": deadline_s,
                "fallback": fallback_seq, "faults": faults,
                "oracle": oracle}
        ctx = multiprocessing.get_context("fork")
        lost: List[List[int]] = []
        try:
            chunks = [c for c in (list(range(n))[i::jobs]
                                  for i in range(jobs)) if c]
            effective_jobs = len(chunks)
            with ProcessPoolExecutor(max_workers=len(chunks),
                                     mp_context=ctx) as pool:
                futures = [(chunk, pool.submit(_batch_worker, chunk))
                           for chunk in chunks]
                for chunk, future in futures:
                    try:
                        chunk_out = future.result()
                    except (BrokenProcessPool, OSError, EOFError):
                        # A dead worker breaks the pool: this chunk and
                        # any still-pending one are lost; completed
                        # futures keep their results.  Collect the
                        # losses, retry them serially below.
                        lost.append(chunk)
                        continue
                    for i, result, qstats, used in chunk_out:
                        results[i] = result
                        per_query[i] = qstats
                        fallbacks[i] = used
            if lost:
                if len(lost) > max_retries:
                    raise BrokenProcessPool(
                        f"{len(lost)} chunks lost to worker crashes,"
                        f" exceeding max_retries={max_retries}")
                for chunk in lost:
                    retries += 1
                    for i in chunk:
                        results[i], per_query[i], fallbacks[i] = \
                            _answer_one(algorithm, network, index,
                                        query_list[i], engine,
                                        collect_stats,
                                        deadline_s=deadline_s,
                                        fallback=fallback_seq,
                                        faults=faults, qindex=i,
                                        oracle=oracle)
        finally:
            _CTX = {}
    else:
        for i, query in enumerate(query_list):
            results[i], per_query[i], fallbacks[i] = _answer_one(
                algorithm, network, index, query, engine, collect_stats,
                deadline_s=deadline_s, fallback=fallback_seq,
                faults=faults, qindex=i, oracle=oracle)
    seconds = time.perf_counter() - started
    merged = None
    if collect_stats:
        merged = merge_query_stats(qs for qs in per_query if qs is not None)
        merged.extras["failures"] = sum(
            1 for r in results if isinstance(r, QueryFailure))
        merged.extras["fallbacks"] = sum(1 for f in fallbacks if f)
        merged.extras["retries"] = retries
    return BatchOutcome(algorithm, jobs, results, seconds,  # type: ignore
                        per_query, merged,
                        effective_jobs=effective_jobs,
                        fallbacks=fallbacks, retries=retries)
