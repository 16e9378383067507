"""The convex hull DPS method (Section VI of the paper).

Algorithm 1 (Q-DPS) and Algorithm 2 ((S, T)-DPS): compute the convex hull
of the query set with Andrew's monotone chain, keep every vertex of the
input graph inside the hull polygon, identify the *border* -- hull corner
vertices plus the points where graph edges pierce hull edges -- and add
the shortest paths between all border pairs.  The input graph ``H`` may be
the original road network or, much faster, a DPS already produced by
RoadPart (the client-side refinement the paper recommends in its
conclusion).

One deviation from the paper's presentation, justified in DESIGN.md: the
paper adds edge/hull *intersection points* to the border and runs SSSP
from them.  An intersection point is not a graph vertex; Section II's own
convention ("if a query point q is on an edge (u, v), we only need to
include both u and v") replaces it by the edge's endpoints, which is what
this implementation does.  Any shortest path crossing the hull through
that edge contains both endpoints, so the path-cover argument of Theorems
8 and 9 goes through unchanged, at the price of a slightly larger border
set (≤ 2x, visible in the ``|border|`` statistic).
"""

from __future__ import annotations

import time
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.dps import DPSQuery, DPSResult
from repro.graph.network import RoadNetwork
from repro.obs.stats import QueryStats, resolve_stats
from repro.shortestpath.deadline import Deadline
from repro.shortestpath.settle import settle_targets
from repro.spatial.geometry import Point, on_segment, orientation
from repro.spatial.hull import convex_hull
from repro.spatial.rect import Rect

BaseGraph = Union[DPSResult, Iterable[int], None]


def _classify_against_hull(p: Sequence[float],
                           hull: Sequence[Point]) -> str:
    """Return 'inside', 'boundary' or 'outside' for point vs convex hull.

    Boundary detection matters beyond bookkeeping: a vertex lying exactly
    on a hull edge can be pierced by a shortest path that weaves out of
    the hull through it, so boundary vertices join the border set.
    """
    n = len(hull)
    if n == 0:
        return "outside"
    if n == 1:
        same = abs(p[0] - hull[0][0]) <= 1e-9 and abs(p[1] - hull[0][1]) <= 1e-9
        return "boundary" if same else "outside"
    if n == 2:
        return "boundary" if on_segment(p, hull[0], hull[1]) else "outside"
    on_edge = False
    collinear_off_edge = False
    for i in range(n):
        turn = orientation(hull[i], hull[(i + 1) % n], p)
        if turn < 0:
            return "outside"
        if turn == 0:
            if on_segment(p, hull[i], hull[(i + 1) % n]):
                on_edge = True
            else:
                # On the edge's supporting line but off the segment:
                # outside for an exactly convex hull, but possibly a
                # boundary point when adjacent hull edges are
                # epsilon-collinear -- let the remaining edges decide
                # (see repro.spatial.hull.point_in_convex_polygon).
                collinear_off_edge = True
    if on_edge or collinear_off_edge:
        return "boundary"
    return "inside"


def _resolve_base(base: BaseGraph) -> Optional[Set[int]]:
    if base is None:
        return None
    if isinstance(base, DPSResult):
        return set(base.vertices)
    return set(base)


def _hull_membership(network: RoadNetwork, points: FrozenSet[int],
                     allowed: Optional[Set[int]],
                     ) -> Tuple[List[Point], Set[int], Set[int]]:
    """Compute the hull of ``points`` and split the allowed vertices of
    the network into (inside ∪ boundary, boundary-only) sets.

    Returns ``(hull, covered, border_seed)`` where ``covered`` are the
    vertices to add to the DPS outright (Line 2 of Algorithm 1) and
    ``border_seed`` the hull corner and on-boundary vertices.
    """
    coords = network.coords
    hull = convex_hull([coords[v] for v in points])
    corner_coords = {(c.x, c.y) for c in hull}
    covered: Set[int] = set()
    border_seed: Set[int] = set()
    window = Rect.from_points(hull).expanded(1e-9)
    for v in network.vertex_rtree().in_window(window):
        if allowed is not None and v not in allowed:
            continue
        where = _classify_against_hull(coords[v], hull)
        if where == "outside":
            continue
        covered.add(v)  # type: ignore[arg-type]
        if where == "boundary" or (coords[v].x, coords[v].y) in corner_coords:
            border_seed.add(v)  # type: ignore[arg-type]
    return hull, covered, border_seed


def _crossing_border(network: RoadNetwork, hull: Sequence[Point],
                     allowed: Optional[Set[int]]) -> Set[int]:
    """Return the endpoints of graph edges that properly cross hull edges
    (Lines 4-6 of Algorithm 1, with the endpoint substitution)."""
    border: Set[int] = set()
    if len(hull) < 2:
        return border
    edge_tree = network.edge_rtree()
    n = len(hull)
    edge_count = n if n > 2 else 1  # a 2-point hull is one segment
    for i in range(edge_count):
        a, b = hull[i], hull[(i + 1) % n]
        for u, v in edge_tree.intersecting(a, b, proper=True):
            if allowed is not None and (u not in allowed or v not in allowed):
                continue  # not an edge of the input subgraph H
            border.add(u)
            border.add(v)
    return border


def convex_hull_dps(network: RoadNetwork, query: DPSQuery,
                    base: BaseGraph = None,
                    stats: Optional[QueryStats] = None,
                    engine: str = "flat",
                    deadline: Optional[Deadline] = None) -> DPSResult:
    """Run the convex hull method (Algorithm 1 or 2, chosen by the query).

    ``base`` selects the input graph ``H``: None for the full road
    network, or a DPS (a :class:`DPSResult` or plain vertex set) to
    refine -- the latter is the paper's recommended client-side use and is
    "several times faster ... even if we include the query processing time
    of RoadPart" (Section VII-B).

    ``stats`` (optional) collects per-phase timings (``hull-membership``,
    ``crossing-border``, ``connect-borders``) and engine counters.
    ``engine`` selects the kernel of
    :func:`~repro.shortestpath.settle.settle_targets`: both engines
    return identical vertices, but ``flat`` runs the goal-directed
    kernel, so its counters count fewer settles than ``dict``'s.
    ``deadline`` (optional) bounds the
    border-connection SSSP rounds (the dominant cost; the geometric
    phases are not deadline-checked) -- see
    :mod:`repro.shortestpath.deadline`.  The result's ``workers`` stat
    counts the processes that ran those rounds (they fork over the
    usable CPUs when there are enough of them; the answer is the same
    either way).
    """
    query.validate_against(network)
    stats = resolve_stats(stats)
    counters = stats.counters
    allowed = _resolve_base(base)
    if allowed is not None:
        outside = query.combined - allowed
        if outside:
            raise ValueError(
                f"base graph misses {len(outside)} query vertices; it is"
                " not a DPS for this query")
    started = time.perf_counter()
    collected: Set[int] = set()
    if query.is_symmetric:
        with stats.phase("hull-membership"):
            hull, covered, border_seed = _hull_membership(
                network, query.sources, allowed)
        with stats.phase("crossing-border"):
            border = border_seed | _crossing_border(network, hull, allowed)
        collected |= covered
        with stats.phase("connect-borders"):
            run = settle_targets(network, border, border, collected,
                                 allowed=allowed, counters=counters,
                                 deadline=deadline, engine=engine)
        border_stat = len(border)
    else:
        with stats.phase("hull-membership"):
            hull_s, covered_s, seed_s = _hull_membership(
                network, query.sources, allowed)
            hull_t, covered_t, seed_t = _hull_membership(
                network, query.targets, allowed)
        with stats.phase("crossing-border"):
            border_s = seed_s | _crossing_border(network, hull_s, allowed)
            border_t = seed_t | _crossing_border(network, hull_t, allowed)
        collected |= covered_s
        collected |= covered_t
        # One SSSP round per vertex of the smaller border.
        small, large = sorted((border_s, border_t), key=len)
        with stats.phase("connect-borders"):
            run = settle_targets(network, small, large, collected,
                                 allowed=allowed, counters=counters,
                                 deadline=deadline, engine=engine)
        border_stat = min(len(border_s), len(border_t))
    collected |= query.combined  # degenerate hulls can miss isolated points
    elapsed = time.perf_counter() - started
    result = DPSResult("ConvexHull", query, frozenset(collected),
                       seconds=elapsed,
                       stats={"border": border_stat,
                              "sssp_rounds": run.rounds,
                              "workers": run.workers,
                              "refined": float(allowed is not None)})
    stats.finish(result, network)
    return result
