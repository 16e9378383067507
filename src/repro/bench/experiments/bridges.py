"""Dual-heap kernel microbenchmark: dict vs fused flat bridge domains.

RoadPart's dominant query phase is ``bridge-domains`` -- one dual-heap
search per examined bridge (Section V-B.2).  This experiment times that
exact production workload with both engines: the examined bridge list
of a mid-sweep EAST-S window query (obtained from the query processor's
own classification and pruning, so the workload is what a real query
runs, not all bridges), one :func:`bridge_domains` call per bridge per
pass.

Both engines perform the same heap operations (the fused flat loop's
operation-equivalence contract), which the warm-up passes cross-check
by comparing full counter sets; the timed repeats are interleaved
(dict, flat, dict, flat, ...) so machine-load drift cancels out of the
speedup ratio.

Two more measures answer the same bridges from the index's endpoint
tree table (:mod:`repro.shortestpath.oracle`):

- ``oracle``: full ``(UD*, VD*)`` membership per bridge via
  :meth:`HubOracle.domains`, every target's two ``dist`` cells read
  afresh -- the reference; a warm-up pass cross-checks every pair
  against the dict engine's sets before anything is timed;
- ``screen``: :meth:`HubOracle.screen`, Theorem 5's test over the
  bridge's memoised verdicts -- exactly what a real query runs instead
  of the dual heap.  It runs on a table of its own, so its first pass
  (timed once, reported as ``first pass``) fills a fresh memo, as the
  first queries of a fresh daemon do; the median is over warm passes.
  The warm-up cross-checks every answer against the dict engine's
  domain emptiness (and, for a valid bridge, its sets).

``python -m repro.bench bridges --check`` fails (exit 1) when the fused
flat dual-heap loop is below :data:`BRIDGES_CHECK_RATIO` x the dict
engine, or when the table is below :data:`ORACLE_CHECK_RATIO` x the
flat kernel -- the CI perf gate companion to ``bench sssp --check``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.bench.experiments.common import dataset_index, dataset_network
from repro.bench.metrics import median
from repro.bench.workloads import QDPSPoint
from repro.core.dps import DPSQuery
from repro.core.roadpart.query import RoadPartQueryProcessor
from repro.datasets.queries import window_query
from repro.obs.counters import SearchCounters
from repro.shortestpath.bidirectional import bridge_domains
from repro.shortestpath.oracle import HubOracle

#: Table II-scale stand-in whose bridge workload is measured.
BRIDGES_DATASET = "EAST-S"
#: Mid-sweep window size (the EAST-S ε sweep is 5-25%).
BRIDGES_EPSILON = 0.15
BRIDGES_REPEATS = 5
#: The ``--check`` gate: flat must be at least this factor faster.
BRIDGES_CHECK_RATIO = 1.3
#: The oracle gate: reading the endpoint tree table must beat the fused
#: flat dual-heap kernel by at least this factor.
ORACLE_CHECK_RATIO = 2.0


@dataclass
class BridgeMeasure:
    """One engine's timings over the examined-bridge workload."""

    dataset: str
    engine: str
    bridges: int           #: examined bridges per pass
    targets: int           #: query vertices each dual-heap search covers
    seconds: float         #: median over the repeats
    samples: List[float] = field(default_factory=list)
    #: ``screen`` only: the one pass over a fresh verdict memo.
    first_pass: Optional[float] = None

    @property
    def domains_per_second(self) -> float:
        return self.bridges / self.seconds


def run_bridges(dataset: str = BRIDGES_DATASET,
                epsilon: float = BRIDGES_EPSILON,
                repeats: int = BRIDGES_REPEATS) -> List[BridgeMeasure]:
    """Time the bridge-domain sweep with both engines, interleaved.

    The workload is deterministic: the standard Table II query window
    for ``(dataset, epsilon)`` (content-derived seed) and whatever
    bridges the default query processor examines for it.
    """
    network = dataset_network(dataset)
    index = dataset_index(dataset)
    point = QDPSPoint(dataset, epsilon)
    query = DPSQuery.q_query(window_query(network, epsilon,
                                          seed=point.seed))
    processor = RoadPartQueryProcessor(index)
    examined = processor.examined_bridges(query)
    if not examined:
        # A degenerate window examined nothing: fall back to every
        # bridge so the kernels still get a workload to disagree on.
        examined = sorted(index.bridges)
    q_vertices = sorted(query.combined)
    network.csr()  # built once and cached, like the R-trees: not timed
    oracle = index.oracle
    engines = ("dict", "flat") + (("oracle", "screen") if oracle is not None
                                  else ())
    weights = {(u, v): network.edge_weight(u, v) for u, v in examined}
    screener = None
    if oracle is not None:
        # Shares the rows, not the memo.
        screener = HubOracle(oracle.hubs, oracle.rows, network)

    def one_pass(engine, counters=None):
        if engine == "oracle":
            for u, v in examined:
                oracle.domains(u, v, weights[(u, v)], q_vertices)
            return
        if engine == "screen":
            for u, v in examined:
                screener.screen(u, v, weights[(u, v)], q_vertices)
            return
        for u, v in examined:
            domains = bridge_domains(network, u, v, q_vertices,
                                     counters=counters, engine=engine)
            domains.release()

    # Warm-up doubles as the operation cross-check: identical counter
    # totals or the speedup comparison is meaningless.
    checks = {}
    for engine in ("dict", "flat"):
        counters = SearchCounters()
        one_pass(engine, counters)
        checks[engine] = counters.as_dict()
    if checks["dict"] != checks["flat"]:
        raise AssertionError(
            f"engines disagree on operation counts: {checks}")
    first_pass = None
    if oracle is not None:
        start = time.perf_counter()
        one_pass("screen")  # fills the fresh memo
        first_pass = time.perf_counter() - start
        # Table warm-up is a correctness cross-check instead (the
        # table touches no SearchCounters by design): every (UD*, VD*)
        # pair must match the dict engine's sets exactly, and the
        # screen must answer None exactly when one of them is empty.
        for u, v in examined:
            domains = bridge_domains(network, u, v, q_vertices,
                                     engine="dict")
            expected = (set(domains.ud_star), set(domains.vd_star))
            domains.release()
            got = oracle.domains(u, v, weights[(u, v)], q_vertices)
            if got != expected:
                raise AssertionError(
                    f"oracle disagrees with the dict engine on bridge"
                    f" ({u}, {v}): oracle={got} dict={expected}")
            screened = screener.screen(u, v, weights[(u, v)], q_vertices)
            if screened != (expected if all(expected) else None):
                raise AssertionError(
                    f"screen disagrees with the dict engine on bridge"
                    f" ({u}, {v}): screen={screened} dict={expected}")
    samples = {engine: [] for engine in engines}
    # Interleaved repeats (dict, flat, oracle, screen, dict, ...):
    # slow machine load drift hits every engine equally and cancels out
    # of the speedup ratios.
    for _ in range(repeats):
        for engine in engines:
            start = time.perf_counter()
            one_pass(engine)
            samples[engine].append(time.perf_counter() - start)
    return [BridgeMeasure(dataset, engine, len(examined), len(q_vertices),
                          median(samples[engine]), samples[engine],
                          first_pass if engine == "screen" else None)
            for engine in engines]


def speedup(measures: List[BridgeMeasure]) -> float:
    """dict seconds / flat seconds (>1 means the fused loop wins)."""
    by_engine = {m.engine: m for m in measures}
    return by_engine["dict"].seconds / by_engine["flat"].seconds


def oracle_speedup(measures: List[BridgeMeasure]) -> Optional[float]:
    """flat seconds / oracle seconds (>1 means the endpoint tree table
    beats the fused dual-heap kernel), or None when no oracle ran."""
    by_engine = {m.engine: m for m in measures}
    if "oracle" not in by_engine:
        return None
    return by_engine["flat"].seconds / by_engine["oracle"].seconds


def screen_speedup(measures: List[BridgeMeasure]) -> Optional[float]:
    """oracle seconds / warm screen seconds (>1 means the memoised
    verdicts beat reading every cell), or None when no oracle ran."""
    by_engine = {m.engine: m for m in measures}
    if "screen" not in by_engine:
        return None
    return by_engine["oracle"].seconds / by_engine["screen"].seconds
