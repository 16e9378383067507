"""BL-Q: the quality-centric baseline (Section III-A of the paper).

BL-Q computes the *smallest* DPS: exactly the vertices lying on some
``sp(s, t)``.  It runs one single-source search per vertex of the
smaller query side, each terminated as soon as every vertex of the other
side is settled, then harvests path vertices with the ``O(|E|)``
vertex-collection routine (both in
:func:`~repro.shortestpath.settle.settle_targets`, whose default kernel
aims each search at the other side with A*).  Total cost
``O(min(|S|, |T|) · |V| log |V|)`` -- the paper's gold standard for DPS
quality and the denominator of every V-ratio in Figure 11.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.dps import DPSQuery, DPSResult
from repro.graph.network import RoadNetwork
from repro.obs.stats import QueryStats, resolve_stats
from repro.shortestpath.deadline import Deadline
from repro.shortestpath.settle import settle_targets


def bl_quality(network: RoadNetwork, query: DPSQuery,
               stats: Optional[QueryStats] = None,
               engine: str = "flat",
               deadline: Optional[Deadline] = None) -> DPSResult:
    """Return the smallest DPS for ``query``.

    Ties between equal-length shortest paths resolve to the path Dijkstra
    discovers, so "smallest" is with respect to one canonical shortest
    path per pair -- the same convention the paper uses (its proofs only
    require *a* shortest path per pair to survive in the subgraph).

    ``stats`` (optional) collects per-phase timings (``sssp``,
    ``collect``) and engine counters.  ``engine`` selects the kernel of
    :func:`~repro.shortestpath.settle.settle_targets`: both engines
    return identical vertices, but ``flat`` runs the goal-directed
    kernel, so its counters count fewer settles than ``dict``'s.
    ``deadline`` (optional) bounds the query's wall clock
    across *all* its SSSP rounds (one shared budget); on expiry the
    round's scratch is recycled and
    :class:`~repro.errors.DeadlineExceeded` propagates.
    """
    query.validate_against(network)
    stats = resolve_stats(stats)
    started = time.perf_counter()
    sources, targets = query.smaller_side()
    collected: set = set()
    rounds = settle_targets(network, sources, targets, collected,
                            counters=stats.counters, deadline=deadline,
                            engine=engine,
                            phases=(stats.phase("sssp"),
                                    stats.phase("collect")))
    elapsed = time.perf_counter() - started
    result = DPSResult("BL-Q", query, frozenset(collected), seconds=elapsed,
                       stats={"sssp_rounds": rounds})
    stats.finish(result, network)
    return result
