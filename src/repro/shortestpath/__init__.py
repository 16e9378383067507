"""Shortest-path engines.

Every DPS algorithm in the paper reduces to shortest-path computations on
the road network:

- :mod:`repro.shortestpath.heap` -- an addressable binary heap with
  decrease-key, the priority queue behind every search.
- :mod:`repro.shortestpath.dijkstra` -- single-source shortest paths with
  target-set and radius early termination (BL-E, the reference rounds of
  BL-Q and the convex hull method).
- :mod:`repro.shortestpath.astar` -- point-to-point A* with the Euclidean
  lower-bound heuristic [13] (cut computation, the Section VII-C
  experiment).
- :mod:`repro.shortestpath.bidirectional` -- the dual-heap search of
  Section V-B.2 that computes both bridge domains in one pass, plus a
  classic bidirectional Dijkstra for point-to-point queries.  Both run
  on the fused flat kernels by default (``engine="flat"``).
- :mod:`repro.shortestpath.flat` -- the array-based CSR kernel behind
  every hot sweep: :class:`FlatDijkstraSearch` plus the fused dual-heap
  loops ``flat_bridge_domains`` / ``flat_bidirectional_ppsp``.
- :mod:`repro.shortestpath.settle` -- :func:`settle_targets`, the
  many-to-many loop behind BL-Q and the convex hull method: one round
  per source until every target settles, then the predecessor walk.
  Its default kernel is A* aimed at the targets' bounding box, with
  answers identical to the per-source Dijkstra reference.
- :mod:`repro.shortestpath.paths` -- predecessor-tree path reconstruction
  and the ``O(|E|)`` vertex-collection routine of Section III-A.
- :mod:`repro.shortestpath.dense` -- the array-based A* of the paper's
  Section VII-C experiment (per-query full initialisation), which is also
  the right engine for a high query rate on a small extracted DPS.

Three index families can be *built on a DPS* (the Section I deployment):
:mod:`repro.shortestpath.alt` (landmarks), :mod:`repro.shortestpath.ch`
(contraction hierarchies, [15] of the paper) and
:mod:`repro.shortestpath.hub_labels` (2-hop labels, [9] of the paper).

Distance oracle
---------------

The RoadPart index carries its own **distance oracle** for the
bridge-domain workload: :class:`HubOracle` in
:mod:`repro.shortestpath.oracle`, the endpoint tree table -- one full
flat Dijkstra per bridge endpoint, kept as its ``dist`` row, from
which the predecessors are derived -- which ``build_index``
precomputes and the query processor reads to answer every examined
bridge (domains and path patch) without a dual-heap sweep.  :func:`build_oracle` / :func:`resolve_oracle_kind`
implement the ``--oracle`` policy (``auto``/``none``).
"""

from repro.shortestpath.alt import ALTIndex
from repro.shortestpath.astar import astar
from repro.shortestpath.bidirectional import bidirectional_ppsp, bridge_domains
from repro.shortestpath.ch import ContractionHierarchy
from repro.shortestpath.dense import DensePPSPEngine
from repro.shortestpath.dijkstra import ShortestPathTree, sssp
from repro.shortestpath.flat import (
    FlatDijkstraSearch,
    flat_bidirectional_ppsp,
    flat_bridge_domains,
)
from repro.shortestpath.heap import AddressableHeap
from repro.shortestpath.hub_labels import HubLabelIndex
from repro.shortestpath.oracle import (
    ORACLE_POLICIES,
    HubOracle,
    build_oracle,
    resolve_oracle_kind,
)
from repro.shortestpath.paths import collect_path_vertices, reconstruct_path
from repro.shortestpath.settle import settle_targets

__all__ = [
    "ALTIndex",
    "AddressableHeap",
    "ContractionHierarchy",
    "DensePPSPEngine",
    "FlatDijkstraSearch",
    "HubLabelIndex",
    "HubOracle",
    "ORACLE_POLICIES",
    "ShortestPathTree",
    "astar",
    "bidirectional_ppsp",
    "bridge_domains",
    "build_oracle",
    "collect_path_vertices",
    "flat_bidirectional_ppsp",
    "flat_bridge_domains",
    "reconstruct_path",
    "resolve_oracle_kind",
    "settle_targets",
    "sssp",
]
