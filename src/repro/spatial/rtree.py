"""STR bulk-loaded R-tree.

Section II of the paper pre-builds two R-trees as a once-for-all step:
``Rtree(V)`` over the vertex points and ``Rtree(E)`` over the edge segments,
bulk-loaded with the Sort-Tile-Recursive (STR) packing algorithm of
Leutenegger et al. [12].  They serve three query types in the paper:

- nearest-neighbour over ``Rtree(V)`` to find BL-E's centre vertex ``vc``
  (Section III-B);
- segment-intersection over ``Rtree(E)`` during the non-planar contour walk
  (Section IV-B.1) and during bridge finding, an indexed-nested-loop
  self-join (Section V-A);
- window/range search over ``Rtree(V)`` for the ``εW × εH`` query-set
  generation (Section VII-B).

:class:`RTree` is generic over ``(Rect, item)`` entries; the
:class:`PointRTree` and :class:`SegmentRTree` wrappers bind it to the two
concrete uses and add the exact geometric post-filters.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Generic, Hashable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.spatial.geometry import Point, segments_cross_properly, segments_intersect
from repro.spatial.rect import Rect, union_all

ItemT = TypeVar("ItemT")

#: Default maximum number of entries per node.
DEFAULT_NODE_CAPACITY = 16


class _Node(Generic[ItemT]):
    """One R-tree node: a box over either child nodes or leaf entries."""

    __slots__ = ("rect", "children", "entries")

    def __init__(self, rect: Rect,
                 children: Optional[List["_Node[ItemT]"]] = None,
                 entries: Optional[List[Tuple[Rect, ItemT]]] = None) -> None:
        self.rect = rect
        self.children = children
        self.entries = entries

    @property
    def is_leaf(self) -> bool:
        return self.entries is not None


def _str_pack(entries: List[Tuple[Rect, ItemT]],
              capacity: int) -> List[_Node[ItemT]]:
    """Pack leaf entries into leaves with Sort-Tile-Recursive tiling."""
    n = len(entries)
    leaf_count = math.ceil(n / capacity)
    slice_count = math.ceil(math.sqrt(leaf_count))
    per_slice = slice_count * capacity

    def cx(entry: Tuple[Rect, ItemT]) -> float:
        r = entry[0]
        return r.xmin + r.xmax

    def cy(entry: Tuple[Rect, ItemT]) -> float:
        r = entry[0]
        return r.ymin + r.ymax

    ordered = sorted(entries, key=cx)
    leaves: List[_Node[ItemT]] = []
    for start in range(0, n, per_slice):
        vertical_slice = sorted(ordered[start:start + per_slice], key=cy)
        for leaf_start in range(0, len(vertical_slice), capacity):
            chunk = vertical_slice[leaf_start:leaf_start + capacity]
            rect = union_all(r for r, _ in chunk)
            leaves.append(_Node(rect, entries=chunk))
    return leaves


def _str_pack_nodes(nodes: List[_Node[ItemT]],
                    capacity: int) -> List[_Node[ItemT]]:
    """Pack child nodes one level up, with the same STR tiling."""
    n = len(nodes)
    parent_count = math.ceil(n / capacity)
    slice_count = math.ceil(math.sqrt(parent_count))
    per_slice = slice_count * capacity

    ordered = sorted(nodes, key=lambda nd: nd.rect.xmin + nd.rect.xmax)
    parents: List[_Node[ItemT]] = []
    for start in range(0, n, per_slice):
        vertical_slice = sorted(ordered[start:start + per_slice],
                                key=lambda nd: nd.rect.ymin + nd.rect.ymax)
        for child_start in range(0, len(vertical_slice), capacity):
            chunk = vertical_slice[child_start:child_start + capacity]
            rect = union_all(nd.rect for nd in chunk)
            parents.append(_Node(rect, children=chunk))
    return parents


class RTree(Generic[ItemT]):
    """A static R-tree over ``(Rect, item)`` entries, STR bulk-loaded.

    The tree is immutable after construction, matching the paper's use: the
    R-trees are built once over the road network and reused by every query.
    """

    def __init__(self, entries: Sequence[Tuple[Rect, ItemT]],
                 node_capacity: int = DEFAULT_NODE_CAPACITY) -> None:
        if node_capacity < 2:
            raise ValueError("node_capacity must be at least 2")
        self._size = len(entries)
        self._capacity = node_capacity
        if not entries:
            self._root: Optional[_Node[ItemT]] = None
            return
        level = _str_pack(list(entries), node_capacity)
        while len(level) > 1:
            level = _str_pack_nodes(level, node_capacity)
        self._root = level[0]

    def __len__(self) -> int:
        return self._size

    @property
    def bounds(self) -> Optional[Rect]:
        """Return the MBR of all entries, or None for an empty tree."""
        return self._root.rect if self._root is not None else None

    def search(self, window: Rect) -> Iterator[Tuple[Rect, ItemT]]:
        """Yield every entry whose rectangle intersects ``window``."""
        if self._root is None or not self._root.rect.intersects(window):
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for rect, item in node.entries:  # type: ignore[union-attr]
                    if rect.intersects(window):
                        yield rect, item
            else:
                for child in node.children:  # type: ignore[union-attr]
                    if child.rect.intersects(window):
                        stack.append(child)

    def nearest(self, point: Sequence[float], k: int = 1,
                ) -> List[Tuple[float, ItemT]]:
        """Return the ``k`` entries nearest to ``point``.

        Results are ``(distance, item)`` pairs in non-decreasing distance
        order, where distance is the MINDIST from the point to the entry
        rectangle -- the exact point distance when entries are points, a
        lower bound for extended objects.  Uses best-first search over node
        MINDISTs, so only the nodes that can contain a result are visited.
        """
        if self._root is None or k <= 0:
            return []
        counter = itertools.count()  # tie-breaker; nodes are not comparable
        frontier: List[Tuple[float, int, object, bool]] = [
            (self._root.rect.min_dist2_to_point(point), next(counter),
             self._root, False)]
        results: List[Tuple[float, ItemT]] = []
        while frontier and len(results) < k:
            dist2, _, payload, is_entry = heapq.heappop(frontier)
            if is_entry:
                rect_item: Tuple[Rect, ItemT] = payload  # type: ignore[assignment]
                results.append((math.sqrt(dist2), rect_item[1]))
                continue
            node: _Node[ItemT] = payload  # type: ignore[assignment]
            if node.is_leaf:
                for rect, item in node.entries:  # type: ignore[union-attr]
                    heapq.heappush(frontier,
                                   (rect.min_dist2_to_point(point),
                                    next(counter), (rect, item), True))
            else:
                for child in node.children:  # type: ignore[union-attr]
                    heapq.heappush(frontier,
                                   (child.rect.min_dist2_to_point(point),
                                    next(counter), child, False))
        return results

    def height(self) -> int:
        """Return the number of levels in the tree (0 for empty)."""
        node = self._root
        if node is None:
            return 0
        levels = 1
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[index]
            levels += 1
        return levels


class PointRTree:
    """``Rtree(V)``: an R-tree over labelled points.

    Items are hashable labels (vertex ids); supports exact nearest-neighbour
    and window containment queries.
    """

    def __init__(self, points: Sequence[Tuple[Hashable, Sequence[float]]],
                 node_capacity: int = DEFAULT_NODE_CAPACITY) -> None:
        entries = [(Rect(p[0], p[1], p[0], p[1]), label)
                   for label, p in points]
        self._tree: RTree[Hashable] = RTree(entries, node_capacity)

    def __len__(self) -> int:
        return len(self._tree)

    def nearest(self, point: Sequence[float], k: int = 1,
                ) -> List[Tuple[float, Hashable]]:
        """Return the ``k`` nearest point labels with exact distances."""
        return self._tree.nearest(point, k)

    def nearest_one(self, point: Sequence[float]) -> Hashable:
        """Return the label of the single nearest point.

        This is the R-tree nearest-neighbour lookup BL-E uses to turn the
        MBR centre ``pc`` into the centre vertex ``vc`` (Section III-B).
        """
        hits = self._tree.nearest(point, 1)
        if not hits:
            raise ValueError("nearest_one on an empty PointRTree")
        return hits[0][1]

    def in_window(self, window: Rect) -> List[Hashable]:
        """Return the labels of all points inside the closed window."""
        return [item for _, item in self._tree.search(window)]


class SegmentRTree:
    """``Rtree(E)``: an R-tree over labelled segments.

    Items are ``(label, (a, b))`` segments; supports the exact
    segment-intersection queries of the contour walk and bridge finding.
    """

    def __init__(self,
                 segments: Sequence[Tuple[Hashable, Tuple[Sequence[float], Sequence[float]]]],
                 node_capacity: int = DEFAULT_NODE_CAPACITY) -> None:
        self._segments = {label: (Point(*a[:2]), Point(*b[:2]))
                          for label, (a, b) in segments}
        entries = [(Rect.from_segment(a, b), label)
                   for label, (a, b) in self._segments.items()]
        self._tree: RTree[Hashable] = RTree(entries, node_capacity)

    def __len__(self) -> int:
        return len(self._tree)

    def segment(self, label: Hashable) -> Tuple[Point, Point]:
        """Return the endpoints of the segment stored under ``label``."""
        return self._segments[label]

    def intersecting(self, a: Sequence[float], b: Sequence[float],
                     proper: bool = False) -> List[Hashable]:
        """Return the labels of stored segments intersecting segment ``ab``.

        With ``proper=True`` only single-interior-point crossings count --
        the bridge predicate of Section V-A, which must not flag edges that
        merely share a junction vertex.
        """
        window = Rect.from_segment(a, b)
        predicate = segments_cross_properly if proper else segments_intersect
        hits: List[Hashable] = []
        for _, label in self._tree.search(window):
            c, d = self._segments[label]
            if predicate(a, b, c, d):
                hits.append(label)
        return hits
