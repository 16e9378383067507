"""Bridge finding, categorisation and pruning (Section V of the paper).

A *bridge* is an edge that geometrically crosses another edge (a flyover
or tunnel); bridges are the only way a shortest path can slip across a
cut without touching the cut's vertices, so they are the only non-planar
repair the window-pruned DPS needs.

Offline, :func:`find_bridges` runs the indexed-nested-loop spatial
self-join of Section V-A.  Online, bridges are classified against the
window (interior / cut / exterior, Section V-C) -- all at once from the
endpoint-label bitsets of :class:`BridgeLabelBits`, with
:func:`classify_bridge` as the per-bridge reference -- and whittled down
by three pruning rules before the expensive domain computations run:

- Theorem 6: interior and exterior bridges never need examining;
- Corollary 3: a cut bridge with an endpoint beyond ``2r`` from BL-E's
  centre vertex cannot carry a query shortest path;
- Theorem 7: a cut bridge lying wholly outside an *earlier* window
  boundary (in the processing order of the cut pairs) is covered by the
  bridges crossing that earlier boundary.

Caveat on Theorem 7: its coverage proof assumes cuts are shortest paths
in the full graph.  This implementation computes cuts on the planar
skeleton (:class:`repro.core.roadpart.labeling.CutCache`), under which
the rule can prune a bridge that query shortest paths need -- a shortcut
bridge wholly outside an earlier boundary undercuts that boundary's cut
corridor, so the excursion it carries cannot be replaced by a cut
segment.  :func:`theorem7_survivors` therefore stays available for the
ablation that measures the paper's rule, but query processing applies it
only when explicitly asked (``prune_theorem7=True``, default False; see
:mod:`repro.core.roadpart.query`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.roadpart.regions import RegionSet
from repro.core.roadpart.window import Label, LabelBits, comp, set_bits
from repro.forkpool import fork_pool, inherited, pool_size
from repro.graph.network import Edge, RoadNetwork

EdgeKey = Tuple[int, int]

#: Edges the join must probe before it forks (:func:`bridge_join`).
#: Measured on grids of 1,440–6,239 edges with two CPUs and a warm
#: ``Rtree(E)``: a probe costs 16–19 µs and a forked join about 15–34 ms
#: more than half the serial one (opening and joining the pool, copy-on-
#: write faults in the inherited tree), so forking pays from about
#: 2 × 22 ms / 17.5 µs ≈ 2,500 edges.  It measured 0.84–1.02× at
#: 2,105–2,897 edges and 1.31× at 4,150.  Below 5,000 edges a fork
#: saves under 25 ms a build, so the threshold sits there and the test
#: suite's networks (at most 4,145 edges, COL-S) keep the serial join;
#: EAST-S (21,128 edges) forks at 1.49×.
FORK_EDGES = 5_000

#: Orders of the cut pairs ``L`` for Theorem 7 (:func:`theorem7_survivors`).
CUT_PAIR_ORDERS = ("load", "dimension")


def find_bridges(network: RoadNetwork) -> FrozenSet[EdgeKey]:
    """Return every edge that properly crosses another edge.

    Indexed-nested-loop self-join over ``Rtree(E)`` with the paper's
    marking shortcut: an edge already marked as a bridge skips its own
    probe (its crossing partners marked it, and they were marked with it).
    ``O(|E| · d log |E|)`` for the small crossing fan-out ``d`` of road
    networks.  A large network's join runs on every usable CPU (see
    :func:`bridge_join`).
    """
    return bridge_join(network)[0]


def bridge_join(network: RoadNetwork) -> Tuple[FrozenSet[EdgeKey], int]:
    """:func:`find_bridges` and how many processes ran the join.

    The caller builds ``Rtree(E)`` first, so fork workers inherit it
    and it stays cached for the contour walk and later builds.  When
    :func:`~repro.forkpool.pool_size` grants ``k > 1`` processes for
    the edge count (see :data:`FORK_EDGES`), edge ``i`` of
    ``network.edges()`` goes to share ``i mod k``; each share probes
    its own edges with its own marking shortcut, and the result is the
    union of the shares' marked sets.  That is the serial set: the
    crossing predicate is symmetric and marking only skips probes, so
    every crossing pair is still found by one of its two edges, and
    every marked edge crosses another.
    """
    network.edge_rtree()
    edges = list(network.edges())
    shares = pool_size(len(edges), FORK_EDGES, len(edges))
    if shares == 1:
        return frozenset(_probe(network, edges)), 1
    marked: Set[EdgeKey] = set()
    with fork_pool(shares, network=network, edges=edges) as pool:
        for found in pool.map(_probe_share, [(share, shares) for share
                                             in range(shares)]):
            marked |= found
    return frozenset(marked), shares


def _probe(network: RoadNetwork, edges: Iterable[Edge]) -> Set[EdgeKey]:
    """The join over ``edges``: each unmarked edge probes ``Rtree(E)``
    and marks itself and its proper crossings."""
    marked: Set[EdgeKey] = set()
    edge_tree = network.edge_rtree()
    coords = network.coords
    for edge in edges:
        key = (edge.u, edge.v)
        if key in marked:
            continue
        crossings = edge_tree.intersecting(coords[edge.u], coords[edge.v],
                                           proper=True)
        if crossings:
            marked.add(key)
            marked.update(crossings)
    return marked


def _probe_share(share: Tuple[int, int]) -> Set[EdgeKey]:
    """Share ``i`` of ``k`` of the join, in a fork worker."""
    i, k = share
    context = inherited()
    return _probe(context["network"],  # type: ignore[arg-type]
                  context["edges"][i::k])  # type: ignore[index]


@dataclass(frozen=True)
class BridgeClassification:
    """One bridge's relation to a query window."""

    kind: str                 #: 'interior', 'cut' or 'exterior'
    cut_dims: Tuple[int, ...] = ()      #: dims whose boundary it crosses
    outside_dims: Tuple[int, ...] = ()  #: dims with both endpoints strictly
    #: on one non-window side (``comp_u · comp_v == 1``)


def classify_bridge(vec_u: Sequence[Label], vec_v: Sequence[Label],
                    window: Sequence[Label]) -> BridgeClassification:
    """Classify a bridge via the ``comp`` operation (Observation 1).

    A bridge is a *cut bridge* when, in some dimension, its endpoints
    straddle a window boundary: opposite strict sides (case 1) or one
    endpoint inside the window span and one strictly outside (cases 2-3).
    All-zero comparisons in every dimension make it *interior*; anything
    else is *exterior*.
    """
    cut_dims: List[int] = []
    outside: List[int] = []
    all_zero = True
    for i, w in enumerate(window):
        cu = comp(vec_u[i], w)
        cv = comp(vec_v[i], w)
        if cu != 0 or cv != 0:
            all_zero = False
        product = cu * cv
        if product == 1:
            outside.append(i)
        if product == -1 or (cu == 0) != (cv == 0):
            cut_dims.append(i)
    if all_zero:
        return BridgeClassification("interior")
    if not cut_dims:
        return BridgeClassification("exterior", outside_dims=tuple(outside))
    return BridgeClassification("cut", cut_dims=tuple(cut_dims),
                                outside_dims=tuple(outside))


class BridgeLabelBits:
    """Observation 1 for every bridge at once.

    Built once per index: per label dimension, one
    :class:`~repro.core.roadpart.window.LabelBits` over the sorted
    bridges' ``u`` endpoint labels and one over their ``v`` endpoint
    labels (bit ``i`` for ``bridges[i]``).  Per window dimension ``w``
    each endpoint side splits into ``overlap`` (``comp = 0``), ``above``
    (``+1``) and ``below`` (``-1``) bitsets, and :func:`classify_bridge`'s
    rules become

    - cut in this dimension: ``(above_u & below_v) | (below_u &
      above_v) | (overlap_u ^ overlap_v)`` -- opposite strict sides, or
      exactly one endpoint in the span;
    - interior: ``overlap_u & overlap_v`` in *every* dimension;

    and every bridge in neither set is exterior.
    """

    def __init__(self, bridges: Iterable[EdgeKey],
                 regions: RegionSet) -> None:
        self.bridges: List[EdgeKey] = sorted(bridges)
        vector = regions.vector_of_vertex
        ends = [(vector(u), vector(v)) for u, v in self.bridges]
        self._dims = [
            (LabelBits([vec_u[i] for vec_u, _ in ends]),
             LabelBits([vec_v[i] for _, vec_v in ends]))
            for i in range(regions.dimensions)]

    def classify(self, window: Sequence[Label],
                 ) -> Tuple[List[EdgeKey], List[EdgeKey]]:
        """``(cut, exterior)`` bridges against ``window``, each
        ascending -- exactly the bridges :func:`classify_bridge` calls
        ``'cut'`` and ``'exterior'``; the rest are interior."""
        full = (1 << len(self.bridges)) - 1
        cut = 0
        interior = full
        for w, (bits_u, bits_v) in zip(window, self._dims):
            low_le_u = bits_u.low_le(w[1])
            high_ge_u = bits_u.high_ge(w[0])
            low_le_v = bits_v.low_le(w[1])
            high_ge_v = bits_v.high_ge(w[0])
            overlap_u = low_le_u & high_ge_u
            overlap_v = low_le_v & high_ge_v
            cut |= (((full ^ low_le_u) & (full ^ high_ge_v))
                    | ((full ^ high_ge_u) & (full ^ low_le_v))
                    | (overlap_u ^ overlap_v))
            interior &= overlap_u & overlap_v
        bridges = self.bridges
        return ([bridges[i] for i in set_bits(cut)],
                [bridges[i] for i in set_bits(full & ~(cut | interior))])


def theorem7_survivors(
        cut_bridges: Dict[EdgeKey, BridgeClassification],
        dimension_count: int,
        order: str = "load") -> List[EdgeKey]:
    """Apply Theorem 7: drop cut bridges wholly outside an *earlier*
    window-boundary cut pair.

    For each bridge, ``j`` is the first cut pair (in the chosen order of
    ``L``) whose boundary the bridge crosses; the bridge is pruned when
    some pair before ``j`` has both bridge endpoints strictly on its
    non-window side.  ``order='dimension'`` takes label-dimension order;
    ``order='load'`` (the paper's closing suggestion) orders pairs by
    non-decreasing number of cut bridges crossing them, which maximises
    the rule's bite.  Returns survivors sorted by edge key.
    """
    if order == "dimension":
        rank = list(range(dimension_count))
    elif order == "load":
        crossing_count = [0] * dimension_count
        for cls in cut_bridges.values():
            for dim in cls.cut_dims:
                crossing_count[dim] += 1
        rank = sorted(range(dimension_count),
                      key=lambda i: (crossing_count[i], i))
    else:
        raise ValueError(f"unknown cut-pair order {order!r}")
    position = {dim: pos for pos, dim in enumerate(rank)}
    survivors: List[EdgeKey] = []
    for key in sorted(cut_bridges):
        cls = cut_bridges[key]
        first_pos = min(position[dim] for dim in cls.cut_dims)
        pruned = any(position[dim] < first_pos for dim in cls.outside_dims)
        if not pruned:
            survivors.append(key)
    return survivors
