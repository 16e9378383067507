"""The road-network graph structure.

Section II of the paper models a road network as an undirected, weighted,
connected graph ``G = (V, E)`` where every vertex carries Cartesian
coordinates, every edge weight is the physical length of the road segment,
vertex degree is bounded by a small constant, and ``|E| = O(|V|)``.

:class:`RoadNetwork` realises that model with contiguous integer vertex ids
``0..n-1``, list-based adjacency (cache-friendly and allocation-light for
the many Dijkstra sweeps the DPS algorithms run), and lazily built, cached
R-trees over the vertices and edges (the ``Rtree(V)``/``Rtree(E)``
pre-processing step of Section II).
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.spatial.geometry import Point, euclidean
from repro.spatial.rect import Rect
from repro.spatial.rtree import PointRTree, SegmentRTree


class Edge(NamedTuple):
    """An undirected edge, normalised so that ``u < v``."""

    u: int
    v: int
    weight: float

    @classmethod
    def normalized(cls, u: int, v: int, weight: float) -> "Edge":
        return cls(u, v, weight) if u < v else cls(v, u, weight)

    @property
    def key(self) -> Tuple[int, int]:
        return (self.u, self.v)


class RoadNetwork:
    """An undirected, weighted graph embedded in the plane.

    Parameters
    ----------
    coords:
        One ``(x, y)`` pair per vertex; vertex ``i`` gets ``coords[i]``.
    edges:
        ``(u, v, weight)`` triples.  Parallel edges collapse to the lightest
        weight; self-loops are rejected (a road from a junction to itself
        never lies on a shortest path and would break the contour walk).
    """

    def __init__(self, coords: Sequence[Sequence[float]],
                 edges: Iterable[Tuple[int, int, float]]) -> None:
        self._coords: List[Point] = [Point(c[0], c[1]) for c in coords]
        n = len(self._coords)
        self._adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._weights: Dict[Tuple[int, int], float] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            if w < 0:
                raise ValueError(f"negative weight on edge ({u}, {v}): {w}")
            key = (u, v) if u < v else (v, u)
            old = self._weights.get(key)
            if old is not None:
                if w < old:
                    self._weights[key] = w
                continue
            self._weights[key] = w
        for (u, v), w in self._weights.items():
            self._adj[u].append((v, w))
            self._adj[v].append((u, w))
        self._vertex_rtree: Optional[PointRTree] = None
        self._edge_rtree: Optional[SegmentRTree] = None
        self._csr = None  # lazily built CSRGraph (see csr())
        self._lower_bound_scale: Optional[float] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._coords)

    @property
    def num_edges(self) -> int:
        return len(self._weights)

    def __len__(self) -> int:
        return self.num_vertices

    def vertices(self) -> range:
        """Return the vertex id range ``0..n-1``."""
        return range(len(self._coords))

    def coord(self, v: int) -> Point:
        """Return the coordinates of vertex ``v``."""
        return self._coords[v]

    @property
    def coords(self) -> Sequence[Point]:
        """Return the coordinate list (indexable by vertex id)."""
        return self._coords

    def neighbors(self, u: int) -> Sequence[Tuple[int, float]]:
        """Return the ``(neighbour, weight)`` adjacency list of ``u``."""
        return self._adj[u]

    @property
    def adjacency(self) -> Sequence[Sequence[Tuple[int, float]]]:
        """Return the full adjacency structure (hot loops index this
        directly to skip one method call per edge relaxation)."""
        return self._adj

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def max_degree(self) -> int:
        """Return the maximum vertex degree (the constant ``d`` whose
        boundedness Section II assumes)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._weights

    def edge_weight(self, u: int, v: int) -> float:
        """Return ``|uv|``, the length of edge ``(u, v)``."""
        key = (u, v) if u < v else (v, u)
        return self._weights[key]

    def edges(self) -> Iterator[Edge]:
        """Yield every undirected edge once, as ``Edge(u < v, weight)``."""
        for (u, v), w in self._weights.items():
            yield Edge(u, v, w)

    def euclidean_length(self, u: int, v: int) -> float:
        """Return ``‖uv‖``, the straight-line distance between endpoints."""
        return euclidean(self._coords[u], self._coords[v])

    def bounds(self) -> Rect:
        """Return ``mbr(V)``, the MBR of all vertices (Section VII-B)."""
        return Rect.from_points(self._coords)

    # ------------------------------------------------------------------
    # Cached spatial indexes (the pre-processing step of Section II)
    # ------------------------------------------------------------------

    def vertex_rtree(self) -> PointRTree:
        """Return ``Rtree(V)``, built on first use and cached."""
        if self._vertex_rtree is None:
            self._vertex_rtree = PointRTree(
                [(v, self._coords[v]) for v in self.vertices()])
        return self._vertex_rtree

    def edge_rtree(self) -> SegmentRTree:
        """Return ``Rtree(E)``, built on first use and cached."""
        if self._edge_rtree is None:
            self._edge_rtree = SegmentRTree(
                [(e.key, (self._coords[e.u], self._coords[e.v]))
                 for e in self.edges()])
        return self._edge_rtree

    def csr(self):
        """Return the flat CSR view of the adjacency (see
        :mod:`repro.graph.csr`), built on first use and cached.

        The network is immutable after construction, so the view never
        goes stale; every flat-kernel search over this network shares it
        (and its recycled search arenas).
        """
        if self._csr is None:
            from repro.graph.csr import CSRGraph  # deferred: avoids cycle
            self._csr = CSRGraph.from_adjacency(self._adj)
        return self._csr

    def lower_bound_scale(self) -> float:
        """Return ``κ`` such that ``κ · ‖uv‖ ≤ dist(u, v)`` for every
        vertex pair, computed on first use and cached like :meth:`csr`.

        ``κ = (1 − 2⁻²⁰) / metric_violation_ratio``: the Euclidean
        lower bound of Section IV-B.3, scaled down where weights fall
        below straight-line length, with a margin that absorbs the
        rounding of ``κ · ‖uv‖``.  A zero-weight edge between distinct
        points admits no such bound, and ``κ = 0``.
        """
        if self._lower_bound_scale is None:
            # deferred: builder imports this module
            from repro.graph.builder import metric_violation_ratio
            try:
                ratio = metric_violation_ratio(self)
            except ValueError:  # zero-weight edge between distinct points
                self._lower_bound_scale = 0.0
            else:
                self._lower_bound_scale = (1.0 - 2.0 ** -20) / ratio
        return self._lower_bound_scale

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------

    def induced_subgraph(self, vertex_ids: Iterable[int],
                         ) -> Tuple["RoadNetwork", List[int]]:
        """Return the subgraph induced by ``vertex_ids`` as a standalone
        network, plus the mapping from new ids back to the original ids.

        This is the "download the DPS to the device" operation: the result
        is self-contained and can be indexed, queried and serialised without
        the original network.
        """
        kept = sorted(set(vertex_ids))
        new_id = {old: new for new, old in enumerate(kept)}
        coords = [self._coords[old] for old in kept]
        edges = []
        for (u, v), w in self._weights.items():
            nu = new_id.get(u)
            nv = new_id.get(v)
            if nu is not None and nv is not None:
                edges.append((nu, nv, w))
        return RoadNetwork(coords, edges), kept

    def subgraph_edge_count(self, vertex_ids: Set[int]) -> int:
        """Return the number of edges of the induced subgraph without
        materialising it (used by DPS size statistics)."""
        count = 0
        for u in vertex_ids:
            for v, _ in self._adj[u]:
                if v > u and v in vertex_ids:
                    count += 1
        return count

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def total_weight(self) -> float:
        """Return the sum of all edge weights."""
        return sum(self._weights.values())

    def __repr__(self) -> str:
        return (f"RoadNetwork(|V|={self.num_vertices}, "
                f"|E|={self.num_edges})")
