"""Vertex labelling per border vertex (Section IV-B.3 of the paper).

For a border vertex ``b``, the cuts (shortest paths, computed with A*)
from ``b`` to the other border vertices divide the network into ``ℓ``
zones, numbered 1..ℓ in contour order from ``b``.  Every vertex receives
an interval label ``[l, h]`` recording the zones it belongs to, in three
steps:

1. vertices on cut ``j`` (which separates zones ``j`` and ``j+1``) get
   zones ``j`` and ``j+1`` inserted;
2. unlabelled vertices on the contour segment of zone ``i`` get ``[i, i]``
   and seed an *in-zone BFS* that floods zone ``i``'s interior, stopping
   at labelled vertices and never traversing bridge edges (which could
   leak across a cut geometrically without touching its vertices);
3. vertices still unlabelled (interior pockets sealed off by cuts) are
   located by ray casting against the zone polygons and flood their
   pocket by the same in-zone BFS.

Two deliberate deviations from the paper's lettering, both *widening*
(widened labels only ever make pruning more conservative, never unsound):

- Step 2 inserts zone ``i`` into the label of every contour-segment
  vertex of zone ``i``, labelled or not.  The paper skips labelled ones,
  which under-labels vertices on dangling contour spurs that border two
  different zones.
- A vertex whose zone ray casting cannot determine (degenerate polygon
  geometry) is widened to ``[1, ℓ]`` -- excluded from every prune -- and
  counted in the stats rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.roadpart.contour import Contour
from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder, resolve_trace
from repro.shortestpath.astar import astar
from repro.shortestpath.flat import flat_astar, resolve_engine
from repro.spatial.polygon import chain_to_polygon, point_in_polygon

Label = Tuple[int, int]


@dataclass
class RoundStats:
    """Instrumentation for one labelling round."""

    cut_vertices: int = 0
    bfs_labelled: int = 0
    raycast_calls: int = 0
    pockets: int = 0
    widened: int = 0
    astar_expanded: int = 0


class CutCache:
    """Cache of border-to-border shortest paths (the cuts).

    ``sp(b_i, b_j)`` is reused (reversed) as ``sp(b_j, b_i)`` in the other
    vertex's round, halving the ``ℓ(ℓ-1)`` A* computations of indexing.

    Cuts are computed on the *planar skeleton* -- the network minus its
    bridge edges.  The paper computes cuts in the full graph, but a cut
    that travels over a flyover breaks the zone geometry: two cuts from
    the same border vertex can then cross each other (one over, one
    under the flyover), zones become ill-defined, and region pruning can
    drop vertices that legitimate shortest paths between window vertices
    use.  Skeleton cuts are planar paths, so cuts never cross and every
    Lemma-2-style replacement argument goes through for bridge-free
    path segments; segments that do use bridges are exactly what the
    bridge-domain machinery patches (see
    :mod:`repro.core.roadpart.query` for the matching pruning change).

    Should the skeleton disconnect a border pair (a region reachable
    only over flyovers), the cut falls back to the full graph and
    ``fallback_cuts`` records it -- the zone guarantees then degrade for
    that cut, so the counter is surfaced in the index stats.
    """

    def __init__(self, network: RoadNetwork,
                 forbidden_edges: Optional[Set[Tuple[int, int]]] = None,
                 engine: str = "flat") -> None:
        self._network = network
        self._engine = resolve_engine(engine)
        self._paths: Dict[Tuple[int, int], List[int]] = {}
        self.astar_expanded = 0
        self.fallback_cuts = 0
        self._skeleton: Optional[RoadNetwork] = None
        if forbidden_edges:
            forbidden = {((u, v) if u < v else (v, u))
                         for u, v in forbidden_edges}
            edges = [(e.u, e.v, e.weight) for e in network.edges()
                     if e.key not in forbidden]
            self._skeleton = RoadNetwork(list(network.coords), edges)

    def preload(self, key: Tuple[int, int], path: List[int],
                expanded: int, fallbacks: int) -> None:
        """Install a cut computed elsewhere (a parallel-build worker)
        under its canonical ``(min, max)`` key, accounting the search
        effort it cost -- see :mod:`repro.core.roadpart.parallel`."""
        self._paths[key] = path
        self.astar_expanded += expanded
        self.fallback_cuts += fallbacks

    def prewarm_for_fork(self) -> None:
        """Build the CSR views the flat engine reads *before* forking,
        so workers inherit them copy-on-write instead of each paying the
        build."""
        if self._engine != "dict":
            self._network.csr()
            if self._skeleton is not None:
                self._skeleton.csr()

    def path(self, source: int, target: int) -> List[int]:
        key = (source, target) if source < target else (target, source)
        cached = self._paths.get(key)
        if cached is None:
            cached = self._compute(key[0], key[1])
            self._paths[key] = cached
        if cached[0] == source:
            return cached
        return cached[::-1]

    def _compute(self, source: int, target: int) -> List[int]:
        # Both A* engines expand, tie-break and trace back identically,
        # so the cut paths -- and hence the whole index -- do not depend
        # on the engine choice (pinned by the property tests).
        search = astar if self._engine == "dict" else flat_astar
        if self._skeleton is not None:
            try:
                result = search(self._skeleton, source, target)
                self.astar_expanded += result.expanded
                return result.path
            except ValueError:
                self.fallback_cuts += 1
        result = search(self._network, source, target)
        self.astar_expanded += result.expanded
        return result.path


def _insert_zone(labels: List[Optional[List[int]]], v: int,
                 zone: int) -> None:
    """The label insertion operation of Section IV-B.3."""
    label = labels[v]
    if label is None:
        labels[v] = [zone, zone]
    elif zone < label[0]:
        label[0] = zone
    elif zone > label[1]:
        label[1] = zone


def _in_zone_bfs(network: RoadNetwork, seeds: List[int], zone: int,
                 labels: List[Optional[List[int]]],
                 bridges: Set[Tuple[int, int]]) -> int:
    """Flood zone ``zone`` from ``seeds`` (all already labelled), stopping
    at labelled vertices and skipping bridge edges.  Returns the count of
    newly labelled vertices."""
    adjacency = network.adjacency
    queue = list(seeds)
    labelled = 0
    while queue:
        u = queue.pop()
        for w, _ in adjacency[u]:
            if labels[w] is not None:
                continue
            if bridges and ((u, w) if u < w else (w, u)) in bridges:
                continue
            labels[w] = [zone, zone]
            labelled += 1
            queue.append(w)
    return labelled


def label_round(network: RoadNetwork, contour: Contour,
                border_positions: Sequence[int], round_index: int,
                bridges: Set[Tuple[int, int]], cuts: CutCache,
                trace: Optional[TraceRecorder] = None,
                ) -> Tuple[List[Label], RoundStats]:
    """Label every vertex with respect to border vertex
    ``border_positions[round_index]``.

    Returns the per-vertex labels (1-based zone intervals, ``ℓ`` zones
    where ``ℓ = len(border_positions)``) and the round's instrumentation.
    ``trace`` (optional) records ``cuts`` / ``flood`` / ``pockets`` child
    spans -- see :mod:`repro.obs.trace`.
    """
    trace = resolve_trace(trace)
    stats = RoundStats()
    coords = network.coords
    zone_count = len(border_positions)
    # Rotate borders so c_0 is this round's vertex; zones then follow the
    # contour order from it.
    rotated = [border_positions[(round_index + k) % zone_count]
               for k in range(zone_count)]
    border_ids = [contour.vertex_ids[pos] for pos in rotated]
    b = border_ids[0]

    # --- cuts: cut_j = sp(b, c_j), separating zone j from zone j+1 ------
    before = cuts.astar_expanded
    with trace.span("cuts"):
        cut_paths: List[List[int]] = [
            cuts.path(b, border_ids[j]) for j in range(1, zone_count)]
    stats.astar_expanded = cuts.astar_expanded - before

    labels: List[Optional[List[int]]] = [None] * network.num_vertices

    with trace.span("flood"):
        # --- Step 1: label cut vertices --------------------------------
        for j, path in enumerate(cut_paths, start=1):
            for v in path:
                _insert_zone(labels, v, j)
                _insert_zone(labels, v, j + 1)
        stats.cut_vertices = sum(1 for lab in labels if lab is not None)

        # --- Step 2: contour segments + in-zone BFS --------------------
        contour_chains: List[List[int]] = []
        for i in range(1, zone_count + 1):
            start_pos = rotated[i - 1]
            end_pos = rotated[i % zone_count]
            chain = contour.chain(start_pos, end_pos)
            contour_chains.append(chain)
            seeds = []
            for v in chain:
                if labels[v] is None:
                    labels[v] = [i, i]
                    seeds.append(v)
                else:
                    _insert_zone(labels, v, i)  # widening fix, docstring
            stats.bfs_labelled += _in_zone_bfs(network, seeds, i, labels,
                                               bridges)

    # --- Step 3: ray-cast the sealed pockets ---------------------------
    unlabelled = [v for v in network.vertices() if labels[v] is None]
    if unlabelled:
        with trace.span("pockets"):
            polygons = _zone_polygons(coords, cut_paths, contour_chains,
                                      zone_count)
            for v in unlabelled:
                if labels[v] is not None:
                    continue  # flooded by an earlier pocket
                zone = _locate_zone(coords[v], polygons, stats)
                if zone is None:
                    labels[v] = [1, zone_count]
                    stats.widened += 1
                    continue
                labels[v] = [zone, zone]
                stats.pockets += 1
                stats.bfs_labelled += _in_zone_bfs(network, [v], zone,
                                                   labels, bridges)

    return [(lab[0], lab[1]) for lab in labels], stats  # type: ignore[index]


def _zone_polygons(coords, cut_paths: List[List[int]],
                   contour_chains: List[List[int]],
                   zone_count: int) -> List[List]:
    """Build the zone polygons: zone ``i`` is bounded by cut ``i-1``, the
    contour segment of zone ``i``, and cut ``i`` reversed (the first and
    last zones have the border vertex itself as one 'cut')."""
    cut_coords = [[coords[v] for v in path] for path in cut_paths]
    chain_coords = [[coords[v] for v in chain] for chain in contour_chains]
    polygons = []
    for i in range(1, zone_count + 1):
        left = cut_coords[i - 2] if i >= 2 else []
        right = cut_coords[i - 1][::-1] if i <= zone_count - 1 else []
        polygons.append(chain_to_polygon(left, chain_coords[i - 1], right))
    return polygons


def _locate_zone(point, polygons: List[List],
                 stats: RoundStats) -> Optional[int]:
    """Return the 1-based zone whose polygon contains ``point``."""
    for i, polygon in enumerate(polygons, start=1):
        stats.raycast_calls += 1
        if len(polygon) >= 3 and point_in_polygon(point, polygon):
            return i
    return None
