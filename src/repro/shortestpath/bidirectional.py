"""Dual-heap and bidirectional Dijkstra searches.

Two distinct uses of "search from both ends" appear in the paper:

1. **Bridge-domain computation (Section V-B.2).**  For a bridge ``(u, v)``
   the domains are ``UD = {x : dist(x, u) = dist(x, v) + |vu|}`` and
   symmetrically ``VD``.  The paper maintains two min-heaps, one Dijkstra
   from each endpoint, always advancing the heap with the smaller minimum
   key, and stops once every vertex of ``S ∪ T`` is settled from both
   sources.  :func:`bridge_domains` reproduces that loop.

2. **Classic bidirectional point-to-point Dijkstra**, provided as an extra
   PPSP engine for the Section VII-C comparisons
   (:func:`bidirectional_ppsp`).

Both entry points take ``engine="flat"|"dict"``.  The default dispatches
to the fused dual-heap loops of :mod:`repro.shortestpath.flat`
(``flat_bridge_domains`` / ``flat_bidirectional_ppsp``), which advance
two pooled-arena searches inside one tight loop; the dict loops in this
module remain the reference engine, and the two are operation-equivalent
(same alternation ties, settle orders, distances, paths and counters --
pinned by ``tests/property/test_dualheap_equivalence.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.graph.network import RoadNetwork
from repro.obs.counters import SearchCounters
from repro.shortestpath.deadline import DEADLINE_CHECK_INTERVAL, Deadline
from repro.shortestpath.dijkstra import DijkstraSearch
from repro.shortestpath.paths import reconstruct_path

#: Relative tolerance for the domain membership equality test.  Edge
#: weights are floats, so ``dist(x, u)`` and ``dist(x, v) + |vu|`` can
#: differ by accumulated rounding even when the paths coincide.  Erring on
#: the inclusive side is safe: a false positive only adds vertices to the
#: DPS, never removes a required one.
DOMAIN_REL_TOL = 1e-9


@dataclass
class BridgeDomains:
    """Result of one bridge-domain computation.

    ``ud_star``/``vd_star`` are ``UD*`` and ``VD*`` of the paper: the
    domain members restricted to the query set.  The two searches are kept
    so the caller can reconstruct ``sp(x, u)`` / ``sp(x, v)`` without
    re-running Dijkstra -- either engine's resumable search (same
    ``dist``/``pred`` read API).  Call :meth:`release` once those views
    are consumed so flat arenas return to their pool.
    """

    u: int
    v: int
    ud_star: Set[int]
    vd_star: Set[int]
    search_u: object
    search_v: object

    def release(self) -> None:
        """Recycle both searches' scratch arenas (no-op for the dict
        engine).  After release the ``dist``/``pred`` views read empty."""
        from repro.shortestpath.flat import release_search
        release_search(self.search_u)
        release_search(self.search_v)


def _in_domain(dist_near: float, dist_far: float, bridge_weight: float) -> bool:
    """Return True when ``dist_near == dist_far + bridge_weight``."""
    return math.isclose(dist_near, dist_far + bridge_weight,
                        rel_tol=DOMAIN_REL_TOL, abs_tol=1e-12)


def bridge_domains(network: RoadNetwork, u: int, v: int,
                   targets: Iterable[int],
                   counters: Optional[SearchCounters] = None,
                   engine: str = "flat",
                   deadline: Optional[Deadline] = None) -> BridgeDomains:
    """Compute ``UD*`` and ``VD*`` for bridge ``(u, v)`` over ``targets``.

    Runs the paper's dual-heap loop: the search (from ``u`` or from ``v``)
    whose next settlement is nearer advances first, and the loop stops as
    soon as every target is settled by both searches.  A target ``x`` joins
    ``UD*`` when ``dist(x, u) = dist(x, v) + |vu|`` (the shortest path from
    ``x`` to ``u`` runs through ``v`` over the bridge), and ``VD*``
    symmetrically.  Theorem 4 guarantees the two sets are disjoint.

    ``engine="flat"`` (default) runs the fused dual-heap kernel over
    pooled CSR arenas; ``engine="dict"`` runs the dict loop below.  Both
    produce identical domains, searches and counters.
    """
    # Imported here, not at module top: flat.py builds on this module.
    from repro.shortestpath.flat import flat_bridge_domains, resolve_engine
    if resolve_engine(engine) == "flat":
        return flat_bridge_domains(network, u, v, targets,
                                   counters=counters, deadline=deadline)
    bridge_weight = network.edge_weight(u, v)
    target_set = set(targets)
    # One shared counter set: the two directions report as one search.
    search_u = DijkstraSearch(network, u, counters=counters)
    search_v = DijkstraSearch(network, v, counters=counters)
    pending_u = set(target_set)
    pending_v = set(target_set)
    if deadline is not None:
        deadline.check()
    dl_ticks = DEADLINE_CHECK_INTERVAL
    while pending_u or pending_v:
        if deadline is not None:
            # One settle per iteration: the usual quantization.
            dl_ticks -= 1
            if dl_ticks <= 0:
                dl_ticks = DEADLINE_CHECK_INTERVAL
                deadline.check()
        key_u = search_u.next_key() if pending_u else None
        key_v = search_v.next_key() if pending_v else None
        if key_u is None and key_v is None:
            break  # disconnected remainder; unreachable targets stay out
        if key_v is None or (key_u is not None and key_u <= key_v):
            settled = search_u.settle_next()
            pending_u.discard(settled[0])
        else:
            settled = search_v.settle_next()
            pending_v.discard(settled[0])
    ud_star: Set[int] = set()
    vd_star: Set[int] = set()
    for x in target_set:
        du = search_u.dist.get(x)
        dv = search_v.dist.get(x)
        if du is None or dv is None:
            continue
        if _in_domain(du, dv, bridge_weight):
            ud_star.add(x)
        elif _in_domain(dv, du, bridge_weight):
            vd_star.add(x)
    return BridgeDomains(u, v, ud_star, vd_star, search_u, search_v)


def bidirectional_ppsp(network: RoadNetwork, source: int, target: int,
                       allowed: Optional[Set[int]] = None,
                       counters: Optional[SearchCounters] = None,
                       engine: str = "flat",
                       deadline: Optional[Deadline] = None,
                       ) -> Tuple[float, List[int]]:
    """Classic bidirectional Dijkstra point-to-point query.

    Alternates forward and backward searches by smaller frontier key and
    stops when the frontier keys together exceed the best meeting-point
    distance.  Returns ``(distance, path)``; raises ValueError when no
    path exists.

    ``engine="flat"`` (default) runs the fused loop over pooled CSR
    arenas (arenas recycled on return); ``engine="dict"`` runs the dict
    loop below.  Both produce identical paths and counters.
    """
    # Imported here, not at module top: flat.py builds on this module.
    from repro.shortestpath.flat import (flat_bidirectional_ppsp,
                                         resolve_engine)
    if resolve_engine(engine) == "flat":
        return flat_bidirectional_ppsp(network, source, target,
                                       allowed=allowed, counters=counters,
                                       deadline=deadline)
    if source == target:
        return 0.0, [source]
    forward = DijkstraSearch(network, source, allowed, counters=counters)
    backward = DijkstraSearch(network, target, allowed, counters=counters)
    best = math.inf
    meeting = -1

    def try_improve(x: int, this_side: DijkstraSearch,
                    other_side: DijkstraSearch) -> None:
        # ``x`` was just settled by ``this_side``; the other side's label
        # may still be tentative, but a tentative label is a valid path
        # length, so the sum is a valid (possibly non-tight) candidate.
        # Once a path vertex settles in both directions the candidate is
        # exact, which is what makes the frontier-sum stop rule correct.
        nonlocal best, meeting
        other = other_side.tentative(x)
        if other is not None and this_side.dist[x] + other < best:
            best = this_side.dist[x] + other
            meeting = x

    if deadline is not None:
        deadline.check()
    dl_ticks = DEADLINE_CHECK_INTERVAL
    while True:
        if deadline is not None:
            # One settle per iteration: the usual quantization.
            dl_ticks -= 1
            if dl_ticks <= 0:
                dl_ticks = DEADLINE_CHECK_INTERVAL
                deadline.check()
        key_f = forward.next_key()
        key_b = backward.next_key()
        if key_f is None and key_b is None:
            break
        if key_f is not None and key_b is not None and key_f + key_b >= best:
            break
        if key_b is None or (key_f is not None and key_f <= key_b):
            settled = forward.settle_next()
            try_improve(settled[0], forward, backward)
        else:
            settled = backward.settle_next()
            try_improve(settled[0], backward, forward)
    if meeting < 0:
        raise ValueError(f"no path from {source} to {target}")
    head = reconstruct_path(forward.pred, source, meeting)
    tail = reconstruct_path(backward.pred, target, meeting)
    tail.reverse()
    return best, head + tail[1:]
