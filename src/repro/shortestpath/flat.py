"""Flat CSR search kernel: array-based resumable Dijkstra (and A*).

This is the hot engine behind every SSSP sweep in the repository.  It
mirrors the :class:`~repro.shortestpath.dijkstra.DijkstraSearch` API --
target-set termination, radius bound, ``allowed`` restriction, staged
resume (BL-E's ``r -> 2r`` continuation), :class:`SearchCounters` hooks,
``dist``/``pred`` mapping views -- but runs over the contiguous CSR
arrays of :mod:`repro.graph.csr` with generation-stamped scratch arenas
(:mod:`repro.shortestpath.arena`):

- no hashing: settled tests, distance labels and predecessors are list
  indexing by vertex id;
- no per-query allocation: arenas are recycled through the CSR's pool;
- one comparison decides each relaxation: pooled arenas keep the
  *all-inf invariant* (every ``dist`` cell a search dirtied is reset to
  ``+inf`` before the arena re-enters the pool), so ``candidate <
  dist[v]`` alone reproduces the dict engine's push decision -- settled
  vertices hold a final label no non-negative arc can beat, frontier
  vertices compare as usual, untouched vertices read ``inf``.  The
  reset walks only the dirtied cells (settled order + leftover
  frontier), trading the stamp reads out of the O(m log n) inner loop
  for an O(touched) release;
- the ``allowed`` vertex mask is stamped into a per-vertex array once
  per search, replacing one set lookup per relaxation with one list
  read.

**Operation-equivalence.**  The kernel pushes exactly the heap entries
the dict engine pushes, in the same order (CSR arc order == adjacency
order), so settle order, predecessor assignments, distances *and the
operation counters* are identical -- pinned by the property tests in
``tests/property/test_flat_equivalence.py`` (and
``tests/property/test_dualheap_equivalence.py`` for the fused dual-heap
loops below).  The bulk ``run_*`` loops batch their counter updates
(plain local ints, flushed once per call), which changes when counts
become visible but never their totals.

Beyond the single-search class, the module provides *fused dual-heap*
kernels -- :func:`flat_bridge_domains` and :func:`flat_bidirectional_ppsp`
-- that advance two pooled-arena searches inside one tight loop,
eliminating the per-pop ``next_key()``/``settle_next()`` method-call
round-trips the dict formulation pays twice per settle.

Engine selection: the DPS entry points take ``engine="flat"|"dict"`` and
construct searches through :func:`make_search`; the dict engine remains
fully supported (see docs/observability.md, "Engine selection").
"""

from __future__ import annotations

import heapq
import math
from array import array
from time import monotonic
from types import SimpleNamespace
from typing import Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import DeadlineExceeded
from repro.graph.csr import CSRGraph
from repro.graph.network import RoadNetwork
from repro.obs.counters import NULL_COUNTERS, SearchCounters
from repro.shortestpath.astar import AStarResult
from repro.shortestpath.deadline import DEADLINE_CHECK_INTERVAL, Deadline
from repro.shortestpath.dijkstra import DijkstraSearch, ShortestPathTree
from repro.shortestpath.paths import reconstruct_path

#: The engine names the ``engine=`` selectors accept: the flat kernel
#: and the dict reference it is operation-equivalent to.
ENGINES = ("flat", "dict")


def resolve_engine(engine: str) -> str:
    """Validate an engine name and return it.

    Unknown names raise ValueError listing :data:`ENGINES`, so a bad
    ``--engine`` surfaces immediately instead of as a deep KeyError.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; available engines:"
                         f" {ENGINES}")
    return engine


#: What the views of a released search read instead of the search: no
#: vertex, no settle, no arena.  :meth:`FlatDijkstraSearch.release`
#: repoints both views here, which breaks the search <-> view reference
#: cycle, so reference counting frees a released search at once instead
#: of leaving it (and its ``settled_order``) to a gen-2 collection.
_RELEASED = SimpleNamespace(csr=SimpleNamespace(num_vertices=0),
                            settled_order=(), _dist=(), _arena=None)


class _DistView:
    """Dict-like read view of a flat search's settled distances.

    Mirrors the dict engine's ``search.dist``: membership == settled,
    iteration yields vertices in settle order, ``[v]`` raises KeyError
    for unsettled vertices.  The view is live -- advancing the search
    extends it -- and reads empty after the search's :meth:`release`.
    """

    __slots__ = ("_search",)

    def __init__(self, search: "FlatDijkstraSearch") -> None:
        self._search = search

    def __contains__(self, v: object) -> bool:
        s = self._search
        return (isinstance(v, int) and 0 <= v < s.csr.num_vertices
                and s._settled[v] == s._gen)

    def __getitem__(self, v: int) -> float:
        s = self._search
        if 0 <= v < s.csr.num_vertices and s._settled[v] == s._gen:
            return s._dist[v]
        raise KeyError(v)

    def get(self, v: int, default=None):
        s = self._search
        if 0 <= v < s.csr.num_vertices and s._settled[v] == s._gen:
            return s._dist[v]
        return default

    def __iter__(self) -> Iterator[int]:
        return iter(self._search.settled_order)

    def __len__(self) -> int:
        return len(self._search.settled_order)

    def keys(self):
        return list(self._search.settled_order)

    def items(self):
        dist = self._search._dist
        return [(v, dist[v]) for v in self._search.settled_order]

    def values(self):
        dist = self._search._dist
        return [dist[v] for v in self._search.settled_order]


class _PredView:
    """Dict-like read view of a flat search's predecessor links.

    Like the dict engine's ``pred``, it covers every vertex that ever
    received a tentative label (settled or still on the frontier), never
    the source.  ``collect_path_vertices`` and ``reconstruct_path`` walk
    it unchanged.
    """

    __slots__ = ("_search",)

    def __init__(self, search: "FlatDijkstraSearch") -> None:
        self._search = search

    def __contains__(self, v: object) -> bool:
        s = self._search
        return (s._arena is not None and isinstance(v, int)
                and 0 <= v < s.csr.num_vertices
                and v != s.source and s._dist[v] != math.inf)

    def __getitem__(self, v: int) -> int:
        s = self._search
        if (s._arena is not None and 0 <= v < s.csr.num_vertices
                and v != s.source and s._dist[v] != math.inf):
            return s._pred[v]
        raise KeyError(v)

    def get(self, v: int, default=None):
        s = self._search
        if (s._arena is not None and 0 <= v < s.csr.num_vertices
                and v != s.source and s._dist[v] != math.inf):
            return s._pred[v]
        return default

    def __iter__(self) -> Iterator[int]:
        s = self._search
        if s._arena is None:
            return iter(())
        dist, source, inf = s._dist, s.source, math.inf
        return (v for v in range(s.csr.num_vertices)
                if v != source and dist[v] != inf)

    def __len__(self) -> int:
        return sum(1 for _ in iter(self))


class FlatDijkstraSearch:
    """A resumable Dijkstra search over CSR arrays.

    Drop-in replacement for :class:`DijkstraSearch`; accepts either a
    :class:`RoadNetwork` (uses its cached CSR view) or a
    :class:`CSRGraph` directly.  Call :meth:`release` once the search
    *and every view derived from it* are dead to recycle the scratch
    arena (optional; an unreleased arena is simply garbage-collected).
    """

    __slots__ = ("csr", "source", "_arena", "_gen", "_dist", "_pred",
                 "_settled", "_allowed_arr", "_allowed_gen", "_deadline",
                 "_frontier", "settled_order", "expanded", "counters",
                 "dist", "pred")

    def __init__(self, network: Union[RoadNetwork, CSRGraph], source: int,
                 allowed: Optional[Set[int]] = None,
                 counters: Optional[SearchCounters] = None,
                 deadline: Optional[Deadline] = None) -> None:
        if allowed is not None and source not in allowed:
            raise ValueError(f"source {source} not in the allowed set")
        csr = network.csr() if isinstance(network, RoadNetwork) else network
        self.csr = csr
        arena = csr.acquire_arena()
        self._arena = arena
        self._gen = arena.generation
        self._dist = arena.dist
        self._pred = arena.pred
        self._settled = arena.settled
        if allowed is None:
            self._allowed_arr = None
            self._allowed_gen = 0
        else:
            agen = arena.new_allowed_generation()
            aarr = arena.allowed
            n = csr.num_vertices
            for v in allowed:
                if 0 <= v < n:
                    aarr[v] = agen
            self._allowed_arr = aarr
            self._allowed_gen = agen
        #: Cooperative wall-clock budget; the bulk runs poll it with a
        #: settle-count-quantized check (see repro.shortestpath.deadline).
        self._deadline = deadline
        self.source = source
        self._dist[source] = 0.0
        self._frontier: List[Tuple[float, int]] = [(0.0, source)]
        self.settled_order: List[int] = []
        self.expanded = 0  # vertices settled; the VII-C efficiency metric
        self.counters = NULL_COUNTERS if counters is None else counters
        self.counters.heap_pushes += 1  # the source seed
        self.dist = _DistView(self)
        self.pred = _PredView(self)

    # ------------------------------------------------------------------
    # Stepping (same contract as DijkstraSearch)
    # ------------------------------------------------------------------

    def tentative(self, v: int) -> Optional[float]:
        """Best label known for ``v`` -- settled, frontier, or None."""
        if self._arena is not None:
            d = self._dist[v]
            if d != math.inf:
                return d
        return None

    def next_key(self) -> Optional[float]:
        """The distance at which the next vertex settles, or None."""
        frontier = self._frontier
        settled = self._settled
        gen = self._gen
        stale = 0
        while frontier and settled[frontier[0][1]] == gen:
            heapq.heappop(frontier)  # stale entry
            stale += 1
        if stale:
            self.counters.on_stale(stale)
        return frontier[0][0] if frontier else None

    def is_exhausted(self) -> bool:
        return self.next_key() is None

    def settle_next(self) -> Optional[Tuple[int, float]]:
        """Settle and return the next ``(vertex, distance)``, or None."""
        frontier = self._frontier
        settled = self._settled
        gen = self._gen
        heappop = heapq.heappop
        heappush = heapq.heappush
        dist = self._dist
        pred = self._pred
        indptr = self.csr.indptr_list
        targets = self.csr.targets_list
        weights = self.csr.weights_list
        allowed = self._allowed_arr
        agen = self._allowed_gen
        stale = 0
        while frontier:
            d, u = heappop(frontier)
            if settled[u] == gen:
                stale += 1
                continue
            settled[u] = gen
            self.settled_order.append(u)
            self.expanded += 1
            start = indptr[u]
            end = indptr[u + 1]
            pushes = 0
            pruned = 0
            for k in range(start, end):
                v = targets[k]
                if settled[v] == gen:
                    continue
                if allowed is not None and allowed[v] != agen:
                    pruned += 1
                    continue
                candidate = d + weights[k]
                if candidate < dist[v]:
                    dist[v] = candidate
                    pred[v] = u
                    heappush(frontier, (candidate, v))
                    pushes += 1
            self.counters.on_settle(stale + 1, stale, end - start,
                                    pushes, pruned)
            return u, d
        if stale:
            self.counters.on_stale(stale)
        return None

    # ------------------------------------------------------------------
    # Staged runs (bulk loops; counters batched per call)
    # ------------------------------------------------------------------

    def run_until_settled(self, targets: Iterable[int]) -> bool:
        """Settle vertices until every target is settled; False when the
        (reachable, allowed) graph exhausts first."""
        settled = self._settled
        gen = self._gen
        remaining = {t for t in targets if settled[t] != gen}
        if not remaining:
            return True
        frontier = self._frontier
        heappop = heapq.heappop
        heappush = heapq.heappush
        dist = self._dist
        pred = self._pred
        indptr = self.csr.indptr_list
        tarr = self.csr.targets_list
        warr = self.csr.weights_list
        allowed = self._allowed_arr
        agen = self._allowed_gen
        order = self.settled_order
        order_append = order.append
        discard = remaining.discard
        before = len(order)
        frontier_before = len(frontier)
        stale = relaxed = pruned = 0
        deadline = self._deadline
        if deadline is not None:
            deadline.check()
        dl_ticks = DEADLINE_CHECK_INTERVAL
        while remaining and frontier:
            d, u = heappop(frontier)
            if settled[u] == gen:
                stale += 1
                continue
            settled[u] = gen
            order_append(u)
            if deadline is not None:
                dl_ticks -= 1
                if dl_ticks <= 0:
                    dl_ticks = DEADLINE_CHECK_INTERVAL
                    if monotonic() >= deadline.expires_at:
                        self._abort_deadline(before, frontier_before,
                                             stale, relaxed, pruned)
            start = indptr[u]
            end = indptr[u + 1]
            relaxed += end - start
            if allowed is None:
                for k in range(start, end):
                    candidate = d + warr[k]
                    v = tarr[k]
                    if candidate < dist[v]:
                        dist[v] = candidate
                        pred[v] = u
                        heappush(frontier, (candidate, v))
            else:
                for k in range(start, end):
                    v = tarr[k]
                    if settled[v] == gen:
                        continue
                    if allowed[v] != agen:
                        pruned += 1
                        continue
                    candidate = d + warr[k]
                    if candidate < dist[v]:
                        dist[v] = candidate
                        pred[v] = u
                        heappush(frontier, (candidate, v))
            discard(u)
        # Every pop settles or is stale, and every heap-length change is
        # one push or one pop, so both tallies are derivable afterwards.
        count = len(order) - before
        pops = count + stale
        pushed = pops + len(frontier) - frontier_before
        self._flush(pops, stale, relaxed, pushed, pruned, count)
        return not remaining

    def run_until_beyond(self, radius: float) -> None:
        """Settle every vertex with distance <= ``radius``; the first
        vertex beyond it stays unsettled (Theorem 1's cut-off)."""
        if radius == math.inf:
            # No cut-off can trigger: use the pop-first loop, which
            # saves the heap peek per settle (same pop/stale counts --
            # stale entries are popped and counted either way).
            self.run_to_exhaustion()
            return
        frontier = self._frontier
        heappop = heapq.heappop
        heappush = heapq.heappush
        settled = self._settled
        gen = self._gen
        dist = self._dist
        pred = self._pred
        indptr = self.csr.indptr_list
        tarr = self.csr.targets_list
        warr = self.csr.weights_list
        allowed = self._allowed_arr
        agen = self._allowed_gen
        order = self.settled_order
        order_append = order.append
        before = len(order)
        frontier_before = len(frontier)
        stale = relaxed = pruned = 0
        deadline = self._deadline
        if deadline is not None:
            deadline.check()
        dl_ticks = DEADLINE_CHECK_INTERVAL
        while frontier:
            d, u = frontier[0]
            if settled[u] == gen:
                heappop(frontier)
                stale += 1
                continue
            if d > radius:
                break
            heappop(frontier)
            settled[u] = gen
            order_append(u)
            if deadline is not None:
                dl_ticks -= 1
                if dl_ticks <= 0:
                    dl_ticks = DEADLINE_CHECK_INTERVAL
                    if monotonic() >= deadline.expires_at:
                        self._abort_deadline(before, frontier_before,
                                             stale, relaxed, pruned)
            start = indptr[u]
            end = indptr[u + 1]
            relaxed += end - start
            if allowed is None:
                for k in range(start, end):
                    candidate = d + warr[k]
                    v = tarr[k]
                    if candidate < dist[v]:
                        dist[v] = candidate
                        pred[v] = u
                        heappush(frontier, (candidate, v))
            else:
                for k in range(start, end):
                    v = tarr[k]
                    if settled[v] == gen:
                        continue
                    if allowed[v] != agen:
                        pruned += 1
                        continue
                    candidate = d + warr[k]
                    if candidate < dist[v]:
                        dist[v] = candidate
                        pred[v] = u
                        heappush(frontier, (candidate, v))
        # Every pop settles or is stale, and every heap-length change is
        # one push or one pop, so both tallies are derivable afterwards.
        count = len(order) - before
        pops = count + stale
        pushed = pops + len(frontier) - frontier_before
        self._flush(pops, stale, relaxed, pushed, pruned, count)

    def run_to_exhaustion(self) -> None:
        """Settle every reachable allowed vertex (pop-first: no radius
        to peek for)."""
        frontier = self._frontier
        heappop = heapq.heappop
        heappush = heapq.heappush
        settled = self._settled
        gen = self._gen
        dist = self._dist
        pred = self._pred
        indptr = self.csr.indptr_list
        tarr = self.csr.targets_list
        warr = self.csr.weights_list
        allowed = self._allowed_arr
        agen = self._allowed_gen
        order = self.settled_order
        order_append = order.append
        before = len(order)
        frontier_before = len(frontier)
        stale = relaxed = pruned = 0
        deadline = self._deadline
        if deadline is not None:
            deadline.check()
        dl_ticks = DEADLINE_CHECK_INTERVAL
        while frontier:
            d, u = heappop(frontier)
            if settled[u] == gen:
                stale += 1
                continue
            settled[u] = gen
            order_append(u)
            if deadline is not None:
                dl_ticks -= 1
                if dl_ticks <= 0:
                    dl_ticks = DEADLINE_CHECK_INTERVAL
                    if monotonic() >= deadline.expires_at:
                        self._abort_deadline(before, frontier_before,
                                             stale, relaxed, pruned)
            start = indptr[u]
            end = indptr[u + 1]
            relaxed += end - start
            if allowed is None:
                for k in range(start, end):
                    candidate = d + warr[k]
                    v = tarr[k]
                    if candidate < dist[v]:
                        dist[v] = candidate
                        pred[v] = u
                        heappush(frontier, (candidate, v))
            else:
                for k in range(start, end):
                    v = tarr[k]
                    if settled[v] == gen:
                        continue
                    if allowed[v] != agen:
                        pruned += 1
                        continue
                    candidate = d + warr[k]
                    if candidate < dist[v]:
                        dist[v] = candidate
                        pred[v] = u
                        heappush(frontier, (candidate, v))
        # Every pop settles or is stale, and every heap-length change is
        # one push or one pop, so both tallies are derivable afterwards.
        count = len(order) - before
        pops = count + stale
        pushed = pops + len(frontier) - frontier_before
        self._flush(pops, stale, relaxed, pushed, pruned, count)

    def _flush(self, pops: int, stale: int, relaxed: int, pushed: int,
               pruned: int, count: int) -> None:
        """Batch-flush the bulk-loop tallies (cold path: once per run)."""
        self.expanded += count
        c = self.counters
        c.heap_pops += pops
        c.stale_skips += stale
        c.edges_relaxed += relaxed
        c.heap_pushes += pushed
        c.vertices_settled += count
        c.expansions_pruned += pruned

    def _abort_deadline(self, before: int, frontier_before: int,
                        stale: int, relaxed: int, pruned: int) -> None:
        """Flush the bulk-loop tallies accumulated so far, then raise
        :class:`DeadlineExceeded` (cold path: at most once per search).

        The arena invariants hold at every settle boundary (every
        dirtied ``dist`` cell is settled or on the frontier), so the
        caller may :meth:`release` the search safely after catching.
        """
        count = len(self.settled_order) - before
        pops = count + stale
        pushed = pops + len(self._frontier) - frontier_before
        self._flush(pops, stale, relaxed, pushed, pruned, count)
        raise DeadlineExceeded(self._deadline.describe())

    # ------------------------------------------------------------------
    # Results / lifecycle
    # ------------------------------------------------------------------

    def tree(self) -> ShortestPathTree:
        """Return the current state as a :class:`ShortestPathTree`; the
        tree's ``dist``/``pred`` are live views over this search."""
        return ShortestPathTree(self.source, self.dist, self.pred,
                                exhausted=self.is_exhausted(),
                                settled_order=self.settled_order)

    def dense_dist(self) -> array:
        """A vertex-indexed float64 copy of an exhausted search's
        distances (``+inf`` where unreachable: the arena's all-inf
        invariant) -- one row of the endpoint tree table
        (:mod:`repro.shortestpath.oracle`)."""
        if self._frontier or self._arena is None:
            raise ValueError("dense_dist needs an exhausted, live search")
        return array("d", self._dist)

    def release(self) -> None:
        """Recycle the scratch arena.

        After release the search and its ``dist``/``pred`` views (and any
        tree sharing them) read as *empty* -- the generation stamp is
        retired, the arena reference dropped and the views repointed at
        :data:`_RELEASED`, so a recycled arena can never leak another
        search's data into them and no view keeps the search alive.
        Releasing twice is a no-op.
        """
        if self._arena is not None:
            self.dist._search = self.pred._search = _RELEASED
            arena, self._arena = self._arena, None
            # Restore the pool's all-inf dist invariant: every dirtied
            # vertex is either settled or still holds a frontier entry.
            dist = self._dist
            inf = math.inf
            for v in self.settled_order:
                dist[v] = inf
            for _, v in self._frontier:
                dist[v] = inf
            self._gen = -1  # no cell ever carries this stamp
            self.csr.release_arena(arena)


# ----------------------------------------------------------------------
# Engine selection + convenience wrappers
# ----------------------------------------------------------------------

def make_search(network: RoadNetwork, source: int,
                allowed: Optional[Set[int]] = None,
                counters: Optional[SearchCounters] = None,
                engine: str = "flat",
                deadline: Optional[Deadline] = None,
                ) -> Union[FlatDijkstraSearch, DijkstraSearch]:
    """Construct a resumable SSSP search with the selected engine.

    This is the single dispatch point the DPS entry points use; both
    engines expose the same search API and produce identical results
    *and operation counts* (the flat kernel's contract).  ``deadline``
    (optional) installs a cooperative wall-clock budget both engines
    poll from their bulk runs -- see :mod:`repro.shortestpath.deadline`.
    """
    if resolve_engine(engine) == "flat":
        return FlatDijkstraSearch(network, source, allowed=allowed,
                                  counters=counters, deadline=deadline)
    return DijkstraSearch(network, source, allowed=allowed,
                          counters=counters, deadline=deadline)


def release_search(search: Union[FlatDijkstraSearch, DijkstraSearch],
                   ) -> None:
    """Recycle a search's arena when it has one (no-op for the dict
    engine) -- callers that provably drop every view call this."""
    release = getattr(search, "release", None)
    if release is not None:
        release()


def flat_bridge_domains(network: RoadNetwork, u: int, v: int,
                        targets: Iterable[int],
                        counters: Optional[SearchCounters] = None,
                        deadline: Optional[Deadline] = None):
    """Fused dual-heap bridge-domain computation (Section V-B.2).

    One tight loop advances *two* pooled-arena searches -- from ``u`` and
    from ``v`` -- by the paper's smaller-min-key rule, with no per-pop
    ``next_key()``/``settle_next()`` method round-trips.  Operation-for-
    operation equivalent to the dict loop in
    :func:`repro.shortestpath.bidirectional.bridge_domains`: the same
    alternation ties (``key_u <= key_v`` advances ``u``), the same
    per-side stale drains (a side whose pending set emptied stops
    draining, exactly as the dict loop stops calling its ``next_key``),
    hence the same settle orders, distances, predecessors and counter
    totals -- pinned by ``tests/property/test_dualheap_equivalence.py``.

    Returns a :class:`~repro.shortestpath.bidirectional.BridgeDomains`
    whose searches are flat; call its ``release()`` once the pred views
    are consumed so both arenas return to the pool.
    """
    # Imported here, not at module top: bidirectional.py dispatches to
    # this function (same cycle-breaking idiom as dijkstra.sssp).
    from repro.shortestpath.bidirectional import BridgeDomains, _in_domain

    bridge_weight = network.edge_weight(u, v)
    target_set = set(targets)
    # One shared counter set: the two directions report as one search.
    search_u = FlatDijkstraSearch(network, u, counters=counters)
    search_v = FlatDijkstraSearch(network, v, counters=counters)
    fu = search_u._frontier
    fv = search_v._frontier
    settled_u = search_u._settled
    settled_v = search_v._settled
    gen_u = search_u._gen
    gen_v = search_v._gen
    dist_u = search_u._dist
    dist_v = search_v._dist
    pred_u = search_u._pred
    pred_v = search_v._pred
    order_u = search_u.settled_order
    order_v = search_v.settled_order
    csr = search_u.csr
    indptr = csr.indptr_list
    tarr = csr.targets_list
    warr = csr.weights_list
    heappop = heapq.heappop
    heappush = heapq.heappush
    pending_u = set(target_set)
    pending_v = set(target_set)
    fu_before = len(fu)
    fv_before = len(fv)
    stale_u = stale_v = relaxed_u = relaxed_v = 0
    if deadline is not None and deadline.expired():
        release_search(search_u)
        release_search(search_v)
        raise DeadlineExceeded(deadline.describe())
    dl_ticks = DEADLINE_CHECK_INTERVAL
    while pending_u or pending_v:
        if deadline is not None:
            # Each iteration settles exactly one vertex (on one side),
            # so this is the same settle-count quantization as the
            # single-search bulk runs.
            dl_ticks -= 1
            if dl_ticks <= 0:
                dl_ticks = DEADLINE_CHECK_INTERVAL
                if monotonic() >= deadline.expires_at:
                    release_search(search_u)
                    release_search(search_v)
                    raise DeadlineExceeded(deadline.describe())
        if pending_u:
            while fu and settled_u[fu[0][1]] == gen_u:
                heappop(fu)  # stale entry
                stale_u += 1
            key_u = fu[0][0] if fu else None
        else:
            key_u = None
        if pending_v:
            while fv and settled_v[fv[0][1]] == gen_v:
                heappop(fv)  # stale entry
                stale_v += 1
            key_v = fv[0][0] if fv else None
        else:
            key_v = None
        if key_u is None and key_v is None:
            break  # disconnected remainder; unreachable targets stay out
        if key_v is None or (key_u is not None and key_u <= key_v):
            # The drain above left a fresh entry on top (staleness is
            # per-search), so this pop settles unconditionally.
            d, x = heappop(fu)
            settled_u[x] = gen_u
            order_u.append(x)
            start = indptr[x]
            end = indptr[x + 1]
            relaxed_u += end - start
            for k in range(start, end):
                candidate = d + warr[k]
                w = tarr[k]
                if candidate < dist_u[w]:
                    dist_u[w] = candidate
                    pred_u[w] = x
                    heappush(fu, (candidate, w))
            pending_u.discard(x)
        else:
            d, x = heappop(fv)
            settled_v[x] = gen_v
            order_v.append(x)
            start = indptr[x]
            end = indptr[x + 1]
            relaxed_v += end - start
            for k in range(start, end):
                candidate = d + warr[k]
                w = tarr[k]
                if candidate < dist_v[w]:
                    dist_v[w] = candidate
                    pred_v[w] = x
                    heappush(fv, (candidate, w))
            pending_v.discard(x)
    count_u = len(order_u)
    count_v = len(order_v)
    pops_u = count_u + stale_u
    pops_v = count_v + stale_v
    search_u._flush(pops_u, stale_u, relaxed_u,
                    pops_u + len(fu) - fu_before, 0, count_u)
    search_v._flush(pops_v, stale_v, relaxed_v,
                    pops_v + len(fv) - fv_before, 0, count_v)
    ud_star: Set[int] = set()
    vd_star: Set[int] = set()
    dget_u = search_u.dist.get
    dget_v = search_v.dist.get
    for x in target_set:
        du = dget_u(x)
        dv = dget_v(x)
        if du is None or dv is None:
            continue
        if _in_domain(du, dv, bridge_weight):
            ud_star.add(x)
        elif _in_domain(dv, du, bridge_weight):
            vd_star.add(x)
    return BridgeDomains(u, v, ud_star, vd_star, search_u, search_v)


def flat_bidirectional_ppsp(network: RoadNetwork, source: int, target: int,
                            allowed: Optional[Set[int]] = None,
                            counters: Optional[SearchCounters] = None,
                            deadline: Optional[Deadline] = None,
                            ) -> Tuple[float, List[int]]:
    """Fused bidirectional point-to-point Dijkstra on the CSR arrays.

    One tight loop over both pooled-arena searches, replacing the dict
    loop's per-pop ``next_key()``/``settle_next()`` round-trips.
    Operation-equivalent to
    :func:`repro.shortestpath.bidirectional.bidirectional_ppsp`: both
    stale drains run every iteration (the dict loop calls both
    ``next_key``s unconditionally), the alternation tie goes forward,
    and the frontier-sum stop rule fires at the same iteration -- so
    meeting vertex, distance, path and counters all match.  Both arenas
    are recycled before returning (or raising).
    """
    if source == target:
        return 0.0, [source]
    forward = FlatDijkstraSearch(network, source, allowed, counters=counters)
    try:
        backward = FlatDijkstraSearch(network, target, allowed,
                                      counters=counters)
    except ValueError:
        forward.release()
        raise
    inf = math.inf
    best = inf
    meeting = -1
    ff = forward._frontier
    fb = backward._frontier
    settled_f = forward._settled
    settled_b = backward._settled
    gen_f = forward._gen
    gen_b = backward._gen
    dist_f = forward._dist
    dist_b = backward._dist
    pred_f = forward._pred
    pred_b = backward._pred
    order_f = forward.settled_order
    order_b = backward.settled_order
    csr = forward.csr
    indptr = csr.indptr_list
    tarr = csr.targets_list
    warr = csr.weights_list
    aarr_f = forward._allowed_arr
    agen_f = forward._allowed_gen
    aarr_b = backward._allowed_arr
    agen_b = backward._allowed_gen
    heappop = heapq.heappop
    heappush = heapq.heappush
    ff_before = len(ff)
    fb_before = len(fb)
    stale_f = stale_b = relaxed_f = relaxed_b = 0
    pruned_f = pruned_b = 0
    dl_ticks = DEADLINE_CHECK_INTERVAL
    try:
        if deadline is not None:
            deadline.check()
        while True:
            if deadline is not None:
                # One settle per iteration: the usual quantization.
                dl_ticks -= 1
                if dl_ticks <= 0:
                    dl_ticks = DEADLINE_CHECK_INTERVAL
                    if monotonic() >= deadline.expires_at:
                        raise DeadlineExceeded(deadline.describe())
            while ff and settled_f[ff[0][1]] == gen_f:
                heappop(ff)  # stale entry
                stale_f += 1
            key_f = ff[0][0] if ff else None
            while fb and settled_b[fb[0][1]] == gen_b:
                heappop(fb)  # stale entry
                stale_b += 1
            key_b = fb[0][0] if fb else None
            if key_f is None and key_b is None:
                break
            if (key_f is not None and key_b is not None
                    and key_f + key_b >= best):
                break
            if key_b is None or (key_f is not None and key_f <= key_b):
                d, x = heappop(ff)
                settled_f[x] = gen_f
                order_f.append(x)
                start = indptr[x]
                end = indptr[x + 1]
                relaxed_f += end - start
                if aarr_f is None:
                    for k in range(start, end):
                        candidate = d + warr[k]
                        w = tarr[k]
                        if candidate < dist_f[w]:
                            dist_f[w] = candidate
                            pred_f[w] = x
                            heappush(ff, (candidate, w))
                else:
                    for k in range(start, end):
                        w = tarr[k]
                        if settled_f[w] == gen_f:
                            continue
                        if aarr_f[w] != agen_f:
                            pruned_f += 1
                            continue
                        candidate = d + warr[k]
                        if candidate < dist_f[w]:
                            dist_f[w] = candidate
                            pred_f[w] = x
                            heappush(ff, (candidate, w))
                # The backward label may still be tentative, but a
                # tentative label is a valid path length, so the sum is
                # a valid (possibly non-tight) meeting candidate.
                other = dist_b[x]
                if other != inf and d + other < best:
                    best = d + other
                    meeting = x
            else:
                d, x = heappop(fb)
                settled_b[x] = gen_b
                order_b.append(x)
                start = indptr[x]
                end = indptr[x + 1]
                relaxed_b += end - start
                if aarr_b is None:
                    for k in range(start, end):
                        candidate = d + warr[k]
                        w = tarr[k]
                        if candidate < dist_b[w]:
                            dist_b[w] = candidate
                            pred_b[w] = x
                            heappush(fb, (candidate, w))
                else:
                    for k in range(start, end):
                        w = tarr[k]
                        if settled_b[w] == gen_b:
                            continue
                        if aarr_b[w] != agen_b:
                            pruned_b += 1
                            continue
                        candidate = d + warr[k]
                        if candidate < dist_b[w]:
                            dist_b[w] = candidate
                            pred_b[w] = x
                            heappush(fb, (candidate, w))
                other = dist_f[x]
                if other != inf and d + other < best:
                    best = d + other
                    meeting = x
        count_f = len(order_f)
        count_b = len(order_b)
        pops_f = count_f + stale_f
        pops_b = count_b + stale_b
        forward._flush(pops_f, stale_f, relaxed_f,
                       pops_f + len(ff) - ff_before, pruned_f, count_f)
        backward._flush(pops_b, stale_b, relaxed_b,
                        pops_b + len(fb) - fb_before, pruned_b, count_b)
        if meeting < 0:
            raise ValueError(f"no path from {source} to {target}")
        head = reconstruct_path(forward.pred, source, meeting)
        tail = reconstruct_path(backward.pred, target, meeting)
        tail.reverse()
        return best, head + tail[1:]
    finally:
        forward.release()
        backward.release()


def flat_astar(network: RoadNetwork, source: int, target: int,
               allowed: Optional[Set[int]] = None,
               counters: Optional[SearchCounters] = None) -> AStarResult:
    """Point-to-point A* on the CSR arrays (Euclidean heuristic).

    Operation-for-operation equivalent to
    :func:`repro.shortestpath.astar.astar` -- same ``(f, g, vertex)``
    heap entries in the same order, hence the same path, expansion count
    and counters -- which is what lets the RoadPart cut computation
    switch engines without changing a single cut (the index stays
    byte-identical across engines).  The scratch arena is recycled on
    return.
    """
    if allowed is not None and (source not in allowed
                                or target not in allowed):
        raise ValueError("source or target outside the allowed set")
    csr = network.csr()
    coords = network.coords
    tx, ty = coords[target]
    hypot = math.hypot
    arena = csr.acquire_arena()
    settled_list: List[int] = []
    frontier: List[Tuple[float, float, int]] = []
    try:
        gen = arena.generation
        dist = arena.dist
        pred = arena.pred
        settled = arena.settled
        if allowed is None:
            aarr = None
            agen = 0
        else:
            agen = arena.new_allowed_generation()
            aarr = arena.allowed
            n = csr.num_vertices
            for v in allowed:
                if 0 <= v < n:
                    aarr[v] = agen
        indptr = csr.indptr_list
        tarr = csr.targets_list
        warr = csr.weights_list
        heappop = heapq.heappop
        heappush = heapq.heappush
        obs = NULL_COUNTERS if counters is None else counters
        obs.heap_pushes += 1  # the source seed
        dist[source] = 0.0
        sx, sy = coords[source]
        frontier.append((hypot(sx - tx, sy - ty), 0.0, source))
        expanded = 0
        stale = 0
        while frontier:
            _, g, u = heappop(frontier)
            if settled[u] == gen:
                stale += 1
                continue
            settled[u] = gen
            settled_list.append(u)
            expanded += 1
            if u == target:
                obs.on_settle(stale + 1, stale, 0, 0)
                path = [target]
                v = target
                while v != source:
                    v = pred[v]
                    path.append(v)
                path.reverse()
                return AStarResult(source, target, g, path, expanded)
            start = indptr[u]
            end = indptr[u + 1]
            pushes = 0
            pruned = 0
            for k in range(start, end):
                v = tarr[k]
                if settled[v] == gen:
                    continue
                if aarr is not None and aarr[v] != agen:
                    pruned += 1
                    continue
                candidate = g + warr[k]
                if candidate < dist[v]:
                    dist[v] = candidate
                    pred[v] = u
                    c = coords[v]
                    heappush(frontier,
                             (candidate + hypot(c[0] - tx, c[1] - ty),
                              candidate, v))
                    pushes += 1
            obs.on_settle(stale + 1, stale, end - start, pushes, pruned)
            stale = 0
        if stale:
            obs.on_stale(stale)
        raise ValueError(
            f"no path from {source} to {target}"
            + (" within the allowed set" if allowed is not None else ""))
    finally:
        # Restore the pool's all-inf dist invariant before recycling.
        inf = math.inf
        for v in settled_list:
            dist[v] = inf
        for _, _, v in frontier:
            dist[v] = inf
        csr.release_arena(arena)
