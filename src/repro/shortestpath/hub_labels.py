"""Hub labelling (2-hop labels) via pruned landmark labelling.

The paper's Section I argument for DPS extraction: "Most state-of-the-art
shortest path indices on road networks rely on pre-computing all-pair
shortest paths [7], [8], [9], [10], which is not practical for large road
networks.  If the region of interest is constrained, one can issue a DPS
query and build the indices on the DPS."  Reference [9] is the 2-hop
labelling of Cohen et al.; this module implements its modern
construction, *pruned landmark labelling* (PLL): process vertices in
importance order, run a Dijkstra from each, and prune every vertex whose
distance is already covered by existing labels.

The result: each vertex ``v`` holds a label set ``L(v) = {(hub, dist)}``
such that ``dist(s, t) = min over common hubs h of L(s)[h] + L(t)[h]``
-- exact, and answered in microseconds without touching the graph.
Label sizes explode on large networks (the paper's point); on an
extracted DPS they are tiny.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.network import RoadNetwork
from repro.obs.counters import NULL_COUNTERS, SearchCounters


class HubLabelIndex:
    """A 2-hop label index over one network.

    Parameters
    ----------
    network:
        The graph to index (typically an extracted DPS).
    order:
        Vertex processing order, most important first.  Any permutation
        is correct; importance ordering shrinks labels.  Default: by
        descending degree, ties by id -- a solid heuristic for road
        networks, where high-degree junctions cover many paths.
    hubs:
        A *partial* hub set (mutually exclusive with ``order``): only
        these vertices are processed, in the given sequence.  The
        labels are then exact for every pair with at least one hub on a
        shortest path between them -- in particular for every pair
        ``(x, h)`` with ``h ∈ hubs``, since ``h`` itself lies on each of
        its own shortest paths.  This is what makes a small hub set a
        sound distance oracle for a fixed endpoint workload -- the
        bridge endpoints, the baseline ``python -m repro.bench build``
        times the endpoint tree table of
        :mod:`repro.shortestpath.oracle` against.  Further hubs can be
        appended with :meth:`add_hub`.
    """

    def __init__(self, network: RoadNetwork,
                 order: Optional[Sequence[int]] = None,
                 counters: Optional[SearchCounters] = None,
                 hubs: Optional[Sequence[int]] = None) -> None:
        self._network = network
        self._build_counters = NULL_COUNTERS if counters is None else counters
        n = network.num_vertices
        if hubs is not None:
            if order is not None:
                raise ValueError("pass either order= or hubs=, not both")
            order = list(hubs)
            if len(set(order)) != len(order):
                raise ValueError("hubs must be distinct")
            for h in order:
                if not 0 <= h < n:
                    raise ValueError(f"hub {h} out of range 0..{n - 1}")
        elif order is None:
            order = sorted(network.vertices(),
                           key=lambda v: (-network.degree(v), v))
        elif sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the vertices")
        self._labels: List[Dict[int, float]] = [{} for _ in range(n)]
        self._rank = [0] * n
        self._hubs: List[int] = []
        self._hub_set: set = set()
        for hub in order:
            self.add_hub(hub)

    def add_hub(self, hub: int) -> None:
        """Process one more vertex as a hub (incremental PLL).

        Labels stay exact for every pair covered by the hubs processed
        so far; appending hubs only grows coverage, never invalidates
        existing labels."""
        if hub in self._hub_set:
            raise ValueError(f"vertex {hub} is already a hub")
        self._rank[hub] = len(self._hubs)
        self._hubs.append(hub)
        self._hub_set.add(hub)
        self._pruned_dijkstra(hub)

    @property
    def hubs(self) -> Tuple[int, ...]:
        """The processed hubs, in processing (importance) order."""
        return tuple(self._hubs)

    def _pruned_dijkstra(self, hub: int) -> None:
        """Label every vertex whose shortest path from ``hub`` is not
        already covered by higher-ranked hubs (the PLL pruning rule)."""
        network = self._network
        labels = self._labels
        hub_label = labels[hub]
        adjacency = network.adjacency
        obs = self._build_counters
        obs.heap_pushes += 1  # the hub seed
        dist: Dict[int, float] = {}
        frontier: List[Tuple[float, int]] = [(0.0, hub)]
        best = {hub: 0.0}
        stale = 0
        while frontier:
            d, u = heapq.heappop(frontier)
            if u in dist:
                stale += 1
                continue
            dist[u] = d
            # Pruning: if some already-placed hub h certifies a path
            # hub→h→u of length ≤ d, then (hub, d) adds nothing to u --
            # and nothing beyond u either, so the search stops here.
            covered = False
            for h, d_hu in labels[u].items():
                d_hub_h = hub_label.get(h)
                if d_hub_h is not None and d_hub_h + d_hu <= d:
                    covered = True
                    break
            if covered:
                obs.on_settle(stale + 1, stale, 0, 0, pruned=1)
                stale = 0
                continue
            labels[u][hub] = d
            neighbours = adjacency[u]
            pushes = 0
            for v, w in neighbours:
                if v in dist:
                    continue
                candidate = d + w
                known = best.get(v)
                if known is None or candidate < known:
                    best[v] = candidate
                    heapq.heappush(frontier, (candidate, v))
                    pushes += 1
            obs.on_settle(stale + 1, stale, len(neighbours), pushes)
            stale = 0
        if stale:
            obs.on_stale(stale)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def distance(self, s: int, t: int) -> float:
        """Return ``dist(s, t)`` from the labels (``inf`` if no common
        hub -- i.e. the vertices are disconnected)."""
        ls = self._labels[s]
        lt = self._labels[t]
        if len(lt) < len(ls):
            ls, lt = lt, ls
        best = math.inf
        for h, d_sh in ls.items():
            d_th = lt.get(h)
            if d_th is not None and d_sh + d_th < best:
                best = d_sh + d_th
        return best

    def label_of(self, v: int) -> Dict[int, float]:
        """Return vertex ``v``'s label (hub → distance), read-only by
        convention."""
        return self._labels[v]

    @property
    def network(self) -> RoadNetwork:
        return self._network

    def total_label_entries(self) -> int:
        """Return ``Σ|L(v)|``, the index size driver."""
        return sum(len(label) for label in self._labels)

    def average_label_size(self) -> float:
        n = self._network.num_vertices
        return self.total_label_entries() / n if n else 0.0

    def index_bytes(self) -> int:
        """Estimate the footprint: 4-byte hub id + 8-byte distance per
        entry."""
        return 12 * self.total_label_entries()
