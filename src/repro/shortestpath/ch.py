"""Contraction Hierarchies (reference [15] of the paper).

The second index family the paper's Section I deployment builds *on a
DPS*: contract vertices in increasing importance, inserting shortcut
edges that preserve shortest paths among the remaining vertices; answer
queries with a bidirectional search that only ever relaxes edges leading
to more important vertices.  Preprocessing the full network is the
expensive step CH is famous for -- on an extracted DPS it is cheap,
which is precisely the paper's argument.

Implementation notes:

- node order is computed on the fly with the classic lazy-update rule on
  the priority ``edge_difference + contracted_neighbours``;
- witness searches are limited (settle cap); an inconclusive witness
  search inserts the shortcut anyway, which can only make the hierarchy
  larger, never wrong;
- queries unpack shortcuts recursively, so returned paths consist of
  original edges only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.network import RoadNetwork
from repro.obs.counters import NULL_COUNTERS, SearchCounters

#: Witness searches settle at most this many vertices before giving up
#: (giving up = insert the shortcut; safe).
WITNESS_SETTLE_LIMIT = 60


@dataclass(frozen=True)
class CHQueryResult:
    """One CH point-to-point answer (path in original edges)."""

    source: int
    target: int
    distance: float
    path: List[int]
    expanded: int


class ContractionHierarchy:
    """A contraction hierarchy over one network."""

    def __init__(self, network: RoadNetwork,
                 witness_settle_limit: int = WITNESS_SETTLE_LIMIT) -> None:
        if network.num_vertices == 0:
            raise ValueError("cannot contract an empty network")
        self._network = network
        self._witness_limit = witness_settle_limit
        n = network.num_vertices
        # Working graph, mutated during contraction.
        work: List[Dict[int, float]] = [dict() for _ in range(n)]
        for edge in network.edges():
            work[edge.u][edge.v] = edge.weight
            work[edge.v][edge.u] = edge.weight
        self._rank = [0] * n
        #: middle vertex of each shortcut, for path unpacking.
        self._via: Dict[Tuple[int, int], int] = {}
        self.shortcut_count = 0

        contracted = [False] * n
        neighbour_hits = [0] * n  # contracted-neighbour counters

        def priority(v: int) -> float:
            shortcuts = self._count_shortcuts(work, contracted, v)
            return (shortcuts - len(work[v])) + neighbour_hits[v]

        queue: List[Tuple[float, int]] = [(priority(v), v)
                                          for v in range(n)]
        heapq.heapify(queue)
        next_rank = 0
        while queue:
            p, v = heapq.heappop(queue)
            if contracted[v]:
                continue
            current = priority(v)  # lazy update
            if queue and current > queue[0][0]:
                heapq.heappush(queue, (current, v))
                continue
            self._contract(work, contracted, v)
            contracted[v] = True
            self._rank[v] = next_rank
            next_rank += 1
            for u in work[v]:
                if not contracted[u]:
                    neighbour_hits[u] += 1

        # Upward adjacency: every original edge and shortcut, stored at
        # its lower-ranked endpoint.
        self._up: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        seen: Dict[Tuple[int, int], float] = {}
        for edge in network.edges():
            key = edge.key
            seen[key] = min(seen.get(key, math.inf), edge.weight)
        for (u, v), w in self._shortcut_weights.items():
            key = (u, v)
            if w < seen.get(key, math.inf):
                seen[key] = w
        for (u, v), w in seen.items():
            if self._rank[u] < self._rank[v]:
                self._up[u].append((v, w))
            else:
                self._up[v].append((u, w))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    _shortcut_weights: Dict[Tuple[int, int], float]

    def _witness_exists(self, work, contracted, source: int, target: int,
                        avoid: int, limit_dist: float) -> bool:
        """Return True when a path source → target of length ≤
        ``limit_dist`` exists in the working graph avoiding ``avoid``.
        Bounded search: inconclusive counts as no witness."""
        dist: Dict[int, float] = {}
        best = {source: 0.0}
        frontier: List[Tuple[float, int]] = [(0.0, source)]
        settles = 0
        while frontier and settles < self._witness_limit:
            d, u = heapq.heappop(frontier)
            if u in dist:
                continue
            if d > limit_dist:
                return False
            dist[u] = d
            settles += 1
            if u == target:
                return True
            for v, w in work[u].items():
                if v == avoid or contracted[v] or v in dist:
                    continue
                candidate = d + w
                known = best.get(v)
                if known is None or candidate < known:
                    best[v] = candidate
                    heapq.heappush(frontier, (candidate, v))
        return False

    def _count_shortcuts(self, work, contracted, v: int) -> int:
        """Return how many shortcuts contracting ``v`` would insert."""
        neighbours = [u for u in work[v] if not contracted[u]]
        count = 0
        for i, u in enumerate(neighbours):
            for w in neighbours[i + 1:]:
                through = work[v][u] + work[v][w]
                if not self._witness_exists(work, contracted, u, w, v,
                                            through):
                    count += 1
        return count

    def _contract(self, work, contracted, v: int) -> None:
        if not hasattr(self, "_shortcut_weights"):
            self._shortcut_weights = {}
        neighbours = [u for u in work[v] if not contracted[u]]
        for i, u in enumerate(neighbours):
            for w in neighbours[i + 1:]:
                through = work[v][u] + work[v][w]
                existing = work[u].get(w, math.inf)
                if existing <= through:
                    continue
                if self._witness_exists(work, contracted, u, w, v,
                                        through):
                    continue
                work[u][w] = through
                work[w][u] = through
                key = (u, w) if u < w else (w, u)
                self._shortcut_weights[key] = through
                self._via[key] = v
                self.shortcut_count += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, source: int, target: int,
              counters: Optional[SearchCounters] = None) -> CHQueryResult:
        """Answer a point-to-point query via bidirectional upward search."""
        if source == target:
            return CHQueryResult(source, target, 0.0, [source], 1)
        dist_f, pred_f, exp_f = self._upward_sweep(source, counters)
        dist_b, pred_b, exp_b = self._upward_sweep(target, counters)
        best = math.inf
        meeting = -1
        probe, other = ((dist_f, dist_b) if len(dist_f) <= len(dist_b)
                        else (dist_b, dist_f))
        for v, d in probe.items():
            d2 = other.get(v)
            if d2 is not None and d + d2 < best:
                best = d + d2
                meeting = v
        if meeting < 0:
            raise ValueError(f"no path from {source} to {target}")
        up_path_f = self._chain(pred_f, source, meeting)
        up_path_b = self._chain(pred_b, target, meeting)
        path = self._unpack(up_path_f) + self._unpack(up_path_b)[::-1][1:]
        return CHQueryResult(source, target, best, path, exp_f + exp_b)

    def distance(self, source: int, target: int,
                 counters: Optional[SearchCounters] = None) -> float:
        """Distance-only query (skips path unpacking)."""
        if source == target:
            return 0.0
        dist_f, _, _ = self._upward_sweep(source, counters)
        dist_b, _, _ = self._upward_sweep(target, counters)
        if len(dist_b) < len(dist_f):
            dist_f, dist_b = dist_b, dist_f
        best = math.inf
        for v, d in dist_f.items():
            d2 = dist_b.get(v)
            if d2 is not None and d + d2 < best:
                best = d + d2
        return best

    def _upward_sweep(self, source: int,
                      counters: Optional[SearchCounters] = None):
        """Dijkstra over the upward graph (exhaustive: the reachable
        upward cone is tiny by construction)."""
        up = self._up
        obs = NULL_COUNTERS if counters is None else counters
        obs.heap_pushes += 1  # the source seed
        dist: Dict[int, float] = {}
        pred: Dict[int, int] = {}
        best = {source: 0.0}
        frontier: List[Tuple[float, int]] = [(0.0, source)]
        expanded = 0
        stale = 0
        while frontier:
            d, u = heapq.heappop(frontier)
            if u in dist:
                stale += 1
                continue
            dist[u] = d
            expanded += 1
            neighbours = up[u]
            pushes = 0
            for v, w in neighbours:
                if v in dist:
                    continue
                candidate = d + w
                known = best.get(v)
                if known is None or candidate < known:
                    best[v] = candidate
                    pred[v] = u
                    heapq.heappush(frontier, (candidate, v))
                    pushes += 1
            obs.on_settle(stale + 1, stale, len(neighbours), pushes)
            stale = 0
        if stale:
            obs.on_stale(stale)
        return dist, pred, expanded

    @staticmethod
    def _chain(pred: Dict[int, int], source: int, target: int) -> List[int]:
        out = [target]
        v = target
        while v != source:
            v = pred[v]
            out.append(v)
        out.reverse()
        return out

    def _unpack(self, path: List[int]) -> List[int]:
        """Expand shortcuts into original edges, recursively."""
        out = [path[0]]
        for a, b in zip(path, path[1:]):
            out.extend(self._expand_edge(a, b))
        return out

    def _expand_edge(self, a: int, b: int) -> List[int]:
        key = (a, b) if a < b else (b, a)
        via = self._via.get(key)
        if via is None or self._edge_beats_shortcut(key):
            return [b]
        return (self._expand_edge(a, via) + self._expand_edge(via, b))

    def _edge_beats_shortcut(self, key: Tuple[int, int]) -> bool:
        """True when an original edge between the endpoints is at least
        as short as the shortcut (then the edge was the one kept)."""
        if not self._network.has_edge(*key):
            return False
        return (self._network.edge_weight(*key)
                <= self._shortcut_weights[key])

    # ------------------------------------------------------------------

    @property
    def network(self) -> RoadNetwork:
        return self._network

    def upward_edge_count(self) -> int:
        """Return the number of edges in the upward search graph
        (original edges + shortcuts)."""
        return sum(len(es) for es in self._up)
