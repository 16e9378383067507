"""A flat CSR (compressed sparse row) view of a :class:`RoadNetwork`.

Every algorithm in the paper is a stack of Dijkstra sweeps -- BL-Q runs
``min(|S|, |T|)`` of them, the index build ``O(l^2)``, the hull method
``O(sqrt(|Q|))`` -- so the representation those sweeps scan is the
hottest data structure in the repository.  The list-of-lists adjacency of
:class:`RoadNetwork` allocates one list and one tuple per arc; the CSR
view packs the same arcs into three contiguous typed arrays:

- ``indptr``  -- ``array('l')`` of length ``n + 1``; vertex ``u``'s arcs
  occupy positions ``indptr[u] .. indptr[u+1]``;
- ``targets`` -- ``array('l')`` of arc heads;
- ``weights`` -- ``array('d')`` of arc weights.

Arc order within a vertex matches ``network.adjacency`` exactly, which is
what makes the flat kernel of :mod:`repro.shortestpath.flat` settle
vertices and assign predecessors in *the same order* as the dict engine
(the equivalence the property tests pin down to the operation counts).

The view is built once per network and cached
(:meth:`RoadNetwork.csr <repro.graph.network.RoadNetwork.csr>`), like the
R-trees; it also owns the :class:`~repro.shortestpath.arena.ArenaPool`
that recycles per-search scratch arrays across queries.  Because the
arrays are plain ``array`` objects they pickle compactly and are shared
copy-on-write by forked index-build workers.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Sequence, Tuple

from repro.shortestpath.arena import ArenaPool, SearchArena

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.network import RoadNetwork


class CSRGraph:
    """Flat arc arrays of one network plus its search-arena pool.

    ``indptr``/``targets``/``weights`` are the canonical typed arrays
    (compact, picklable, fork-shareable).  ``indptr_list``/
    ``targets_list``/``weights_list`` mirror them as plain Python lists:
    a typed-array read re-boxes its element on every access, while a list
    read returns the object boxed once at build time -- measurably faster
    in the pure-Python inner loops, which is the whole point of this
    layer.  Both views describe the same arcs in the same order.
    """

    __slots__ = ("num_vertices", "num_arcs", "indptr", "targets",
                 "weights", "indptr_list", "targets_list", "weights_list",
                 "_pool")

    def __init__(self, indptr: array, targets: array,
                 weights: array) -> None:
        self.num_vertices = len(indptr) - 1
        self.num_arcs = len(targets)
        self.indptr = indptr
        self.targets = targets
        self.weights = weights
        self.indptr_list = indptr.tolist()
        self.targets_list = targets.tolist()
        self.weights_list = weights.tolist()
        self._pool = ArenaPool(self.num_vertices)

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[Tuple[int, float]]],
                       ) -> "CSRGraph":
        """Pack a list-of-lists adjacency into CSR arrays, preserving the
        per-vertex arc order."""
        indptr = array("l", [0]) * (len(adjacency) + 1)
        targets = array("l")
        weights = array("d")
        offset = 0
        for u, arcs in enumerate(adjacency):
            offset += len(arcs)
            indptr[u + 1] = offset
            for v, w in arcs:
                targets.append(v)
                weights.append(w)
        return cls(indptr, targets, weights)

    @classmethod
    def from_network(cls, network: "RoadNetwork") -> "CSRGraph":
        return cls.from_adjacency(network.adjacency)

    def degree(self, u: int) -> int:
        return self.indptr[u + 1] - self.indptr[u]

    # ------------------------------------------------------------------
    # Arena recycling (see repro.shortestpath.arena)
    # ------------------------------------------------------------------

    def acquire_arena(self) -> SearchArena:
        """Check a scratch arena out of the pool (O(1) reset included)."""
        return self._pool.acquire()

    def release_arena(self, arena: SearchArena) -> None:
        """Return an arena once no live search/result references it."""
        self._pool.release(arena)

    # ------------------------------------------------------------------

    def __getstate__(self):
        # The arena pool is per-process scratch: forked or pickled copies
        # start with an empty pool of their own.
        return (self.indptr, self.targets, self.weights)

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self) -> str:
        return (f"CSRGraph(|V|={self.num_vertices},"
                f" arcs={self.num_arcs})")
