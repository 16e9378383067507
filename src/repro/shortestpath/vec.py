"""Vectorized array kernels: bucketed SSSP.

This module is the third engine (``engine="numpy"``).  Its kernels
obtain their array module from :func:`repro.vec.backend.xp` --
numpy today, with the call-through seam shaped so a CuPy module could
drop in -- and the module itself imports cleanly without numpy (the
classes raise only when *used* without a backend; the engine registry
never routes here in that case).

**Bucketed SSSP** (:class:`VecDijkstraSearch`).  Instead of a binary
heap settling one vertex per pop, the search advances in *waves*
(bucketed Dijkstra / one-bucket delta-stepping, after Chapuis &
Djidjev, arXiv:1503.07192): pick the smallest unsettled tentative
distance ``lo``, fix a threshold ``T = lo + delta`` (``delta`` = mean
arc weight), and Bellman-Ford the bucket ``{tentative <= T}`` to a
fixpoint with whole-frontier CSR gather / grouped scatter-min
(``np.minimum.reduceat``) relaxations.  Every vertex whose true
distance is at most ``T`` then holds its exact label (any shortest
path to it runs through vertices that are settled or in the bucket,
and the fixpoint is closed under relaxation over both), so the whole
bucket settles at once.

**Result equivalence, not settle-order equivalence.**  The dict/flat
pair is operation-equivalent (same heap pops in the same order); a
bucket engine cannot be -- it has no per-vertex pop sequence to match.
What it guarantees instead, and what the property tests pin:

- *Distances are bit-identical.*  Every tentative label is
  ``dist[u] + w`` in float64, the same IEEE operation the dict engine
  performs, and the settled value is the minimum over the same
  candidate set -- a minimum is order-independent.
- *Predecessors are bit-identical.*  The dict engine's final
  ``pred[v]`` is the first settled neighbour (in settle order) whose
  relaxation achieved the final label.  With positive weights, every
  final-distance push is in the heap before the first pop at that
  distance, so equal-distance vertices settle in increasing id order
  and that first neighbour is exactly
  ``argmin over {(dist[u], u) : dist[u] + w(u,v) == dist[v]}`` (exact
  float equality).  The wave engine computes that argmin directly per
  settled bucket, over the same symmetric CSR (every in-arc of ``v``
  is stored as an out-arc of ``v``).
- *Settled sets are closures.*  ``run_until_settled(T)`` trims its
  last bucket at ``D* = max target distance``, leaving exactly
  ``{v : dist(v) <= D*}`` settled; ``run_until_beyond(r)`` leaves
  exactly ``{v : dist(v) <= r}`` (ties settled, as in the other
  engines).  Every consumer (BL-E's ``frozenset(search.dist)``, the
  unreached checks, pred-chain walks of settled targets) reads the
  same answers.

Operation counters are **bucket-level**: settles and relaxed-arc scans
are comparable in spirit, but re-relaxations inside a bucket fixpoint
and the absence of a heap make the totals incomparable with the
dict/flat engines' (see docs/observability.md).  The dict engine
remains the oracle of record.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.graph.csr import CSRGraph
from repro.graph.network import RoadNetwork
from repro.obs.counters import NULL_COUNTERS, SearchCounters
from repro.shortestpath.deadline import Deadline
from repro.shortestpath.dijkstra import ShortestPathTree
from repro.shortestpath.paths import reconstruct_path
from repro.vec.backend import xp


def _require_backend():
    np = xp()
    if np is None:
        raise RuntimeError(
            "the vectorized kernels need an array backend; install the"
            " 'vec' extra (pip install repro[vec]) or unset"
            " REPRO_VEC_DISABLE")
    return np


def _segment_min(np, values, offsets, counts, sentinel):
    """Per-segment minimum of ``values`` split at ``offsets``.

    ``offsets[i]`` is the start of segment ``i`` (length ``counts[i]``,
    segments contiguous and in order).  A ``sentinel`` element appended
    to ``values`` sidesteps both ``reduceat`` pitfalls -- an offset
    equal to ``len(values)`` (trailing empty segments) would be out of
    bounds, and an empty segment returns the element *at* its offset --
    and empty segments are masked to ``sentinel`` afterwards.
    """
    if counts.size == 0:
        return values[:0]
    padded = np.append(values, sentinel)
    out = np.minimum.reduceat(padded, offsets)
    return np.where(counts > 0, out, sentinel)


def _expand_ranges(np, starts, counts, total):
    """Flat index array covering ``[starts[i], starts[i]+counts[i])``
    for every segment ``i``, concatenated -- the CSR arc gather."""
    seg_off = np.cumsum(counts) - counts
    return np.repeat(starts - seg_off, counts) + np.arange(total)


def _in_domain_arr(np, dist_near, dist_far):
    """Vectorized ``math.isclose(dist_near, dist_far, rel_tol=
    DOMAIN_REL_TOL, abs_tol=1e-12)`` -- the same formula CPython
    evaluates, so scalar and array decisions coincide bit-for-bit.

    Only meaningful on finite pairs: callers mask unreachable entries
    (``inf`` operands can produce ``nan`` diffs or inf-vs-inf ties).
    """
    from repro.shortestpath.bidirectional import DOMAIN_REL_TOL
    with np.errstate(invalid="ignore"):
        diff = np.abs(dist_near - dist_far)
        tol = np.maximum(
            DOMAIN_REL_TOL * np.maximum(np.abs(dist_near),
                                        np.abs(dist_far)),
            1e-12)
        return diff <= tol


# ----------------------------------------------------------------------
# Bucketed SSSP engine
# ----------------------------------------------------------------------


class _VecDistView:
    """Dict-like read view of settled distances (mirrors the flat
    engine's ``_DistView``: membership == settled, iteration in settle
    order, ``[v]`` raises KeyError for unsettled vertices, values are
    plain Python floats)."""

    __slots__ = ("_search",)

    def __init__(self, search: "VecDijkstraSearch") -> None:
        self._search = search

    def __contains__(self, v: object) -> bool:
        s = self._search
        return (s._settled is not None and isinstance(v, int)
                and 0 <= v < s._n and bool(s._settled[v]))

    def __getitem__(self, v: int) -> float:
        s = self._search
        if s._settled is not None and 0 <= v < s._n and s._settled[v]:
            return float(s._dist[v])
        raise KeyError(v)

    def get(self, v: int, default=None):
        s = self._search
        if s._settled is not None and 0 <= v < s._n and s._settled[v]:
            return float(s._dist[v])
        return default

    def __iter__(self) -> Iterator[int]:
        return iter(self._search.settled_order)

    def __len__(self) -> int:
        return len(self._search.settled_order)

    def keys(self):
        return list(self._search.settled_order)

    def items(self):
        dist = self._search._dist
        return [(v, float(dist[v])) for v in self._search.settled_order]

    def values(self):
        dist = self._search._dist
        return [float(dist[v]) for v in self._search.settled_order]


class _VecPredView:
    """Dict-like read view of predecessor links.

    Covers the *settled* vertices except the source -- slightly
    narrower than the dict/flat views (which also expose tentative
    frontier preds), but every consumer in the repository only walks
    pred chains of settled vertices, and those chains are settled all
    the way down (each predecessor is strictly nearer).
    """

    __slots__ = ("_search",)

    def __init__(self, search: "VecDijkstraSearch") -> None:
        self._search = search

    def __contains__(self, v: object) -> bool:
        s = self._search
        return (s._settled is not None and isinstance(v, int)
                and 0 <= v < s._n and v != s.source and bool(s._settled[v]))

    def __getitem__(self, v: int) -> int:
        s = self._search
        if (s._settled is not None and 0 <= v < s._n and v != s.source
                and s._settled[v] and s._pred[v] >= 0):
            return int(s._pred[v])
        raise KeyError(v)

    def get(self, v: int, default=None):
        try:
            return self[v]
        except KeyError:
            return default

    def __iter__(self) -> Iterator[int]:
        s = self._search
        return (v for v in s.settled_order if v != s.source)

    def __len__(self) -> int:
        return sum(1 for _ in iter(self))


class VecDijkstraSearch:
    """Resumable bucketed SSSP over numpy views of the CSR arrays.

    Same staged-run API as the dict/flat engines (``run_until_settled``
    / ``run_until_beyond`` / ``run_to_exhaustion`` / ``settle_next``,
    live ``dist``/``pred`` views, shared ``counters``, cooperative
    ``deadline``), with the result-equivalence contract described in
    the module docstring.  Scratch arrays are owned per search (no
    arena pool); :meth:`release` drops them and the views read empty.
    """

    __slots__ = ("csr", "source", "settled_order", "expanded", "counters",
                 "dist", "pred", "_np", "_n", "_indptr", "_targets",
                 "_weights", "_delta", "_dist", "_pred", "_settled",
                 "_allowed", "_deadline",
                 "_pops", "_pushes", "_relaxed", "_pruned", "_settles")

    def __init__(self, network: Union[RoadNetwork, CSRGraph], source: int,
                 allowed: Optional[Set[int]] = None,
                 counters: Optional[SearchCounters] = None,
                 deadline: Optional[Deadline] = None) -> None:
        if allowed is not None and source not in allowed:
            raise ValueError(f"source {source} not in the allowed set")
        np = _require_backend()
        csr = network.csr() if isinstance(network, RoadNetwork) else network
        self.csr = csr
        self._np = np
        indptr, targets, weights, delta = csr.vec_views()
        self._indptr = indptr
        self._targets = targets
        self._weights = weights
        self._delta = delta
        n = csr.num_vertices
        self._n = n
        self._dist = np.full(n, math.inf)
        self._pred = np.full(n, -1, dtype=np.int64)
        self._settled = np.zeros(n, dtype=bool)
        if allowed is None:
            self._allowed = None
        else:
            mask = np.zeros(n, dtype=bool)
            inside = [v for v in allowed if 0 <= v < n]
            if inside:
                mask[np.asarray(inside, dtype=np.int64)] = True
            self._allowed = mask
        self._deadline = deadline
        self.source = source
        self._dist[source] = 0.0
        self.settled_order: List[int] = []
        self.expanded = 0  # vertices settled; the VII-C efficiency metric
        self.counters = NULL_COUNTERS if counters is None else counters
        self.counters.heap_pushes += 1  # the source seed (engine parity)
        self._pops = self._pushes = self._relaxed = 0
        self._pruned = self._settles = 0
        self.dist = _VecDistView(self)
        self.pred = _VecPredView(self)

    # ------------------------------------------------------------------
    # Wave primitives
    # ------------------------------------------------------------------

    def _relax(self, src, bound: float):
        """Relax every out-arc of ``src``; return the vertices whose
        tentative label improved to a value <= ``bound`` (the next
        fixpoint frontier)."""
        np = self._np
        starts = self._indptr[src]
        counts = self._indptr[src + 1] - starts
        total = int(counts.sum())
        self._relaxed += total
        if total == 0:
            return src[:0]
        k = _expand_ranges(np, starts, counts, total)
        nb = self._targets[k]
        cand = np.repeat(self._dist[src], counts) + self._weights[k]
        keep = ~self._settled[nb]
        if self._allowed is not None:
            ok = self._allowed[nb]
            self._pruned += int(np.count_nonzero(keep & ~ok))
            keep &= ok
        nb = nb[keep]
        cand = cand[keep]
        if nb.size == 0:
            return nb
        # Grouped scatter-min: one reduceat per distinct head vertex.
        order = np.argsort(nb, kind="stable")
        nb_s = nb[order]
        first = np.empty(nb_s.size, dtype=bool)
        first[0] = True
        first[1:] = nb_s[1:] != nb_s[:-1]
        first = np.flatnonzero(first)
        uniq = nb_s[first]
        best = np.minimum.reduceat(cand[order], first)
        improve = best < self._dist[uniq]
        upd = uniq[improve]
        self._dist[upd] = best[improve]
        self._pushes += int(upd.size)
        return upd[self._dist[upd] <= bound]

    def _next_bucket(self, cap: float):
        """Fixpoint-relax the next bucket without settling it.

        Returns ``(T, bucket_ids)`` where ``T = min(lo + delta, cap)``
        and every vertex in the bucket (unsettled, ``dist <= T``) holds
        its exact final distance -- or None when the frontier is empty
        or entirely beyond ``cap``.
        """
        np = self._np
        if self._deadline is not None:
            self._deadline.check()
        masked = np.where(self._settled, math.inf, self._dist)
        lo = float(masked.min()) if self._n else math.inf
        if lo == math.inf or lo > cap:
            return None
        T = lo + self._delta
        if T > cap:
            T = cap
        frontier = np.flatnonzero((masked <= T))
        while frontier.size:
            frontier = self._relax(frontier, T)
        bucket = np.flatnonzero(~self._settled & (self._dist <= T))
        return T, bucket

    def _settle(self, bucket) -> int:
        """Settle ``bucket`` (ids with exact final distances): mark
        settled, assign canonical predecessors, extend the settle order
        sorted by ``(dist, id)`` -- the order the heap engines settle
        equal-batch vertices in."""
        np = self._np
        if bucket.size == 0:
            return 0
        b = bucket[np.lexsort((bucket, self._dist[bucket]))]
        self._settled[b] = True
        self._assign_preds(b)
        self.settled_order.extend(b.tolist())
        self._settles += int(b.size)
        self._pops += int(b.size)
        return int(b.size)

    def _assign_preds(self, b) -> None:
        """Canonical predecessors for newly settled ``b``: per vertex
        ``v``, the ``(dist[u], u)``-argmin over settled neighbours with
        ``dist[u] + w(u, v) == dist[v]`` exactly -- which is the dict
        engine's final ``pred[v]`` (see module docstring).  The
        adjacency is symmetric, so the out-arcs of ``v`` enumerate its
        in-arcs with the same weights."""
        np = self._np
        starts = self._indptr[b]
        counts = self._indptr[b + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return
        offsets = (np.cumsum(counts) - counts)
        k = _expand_ranges(np, starts, counts, total)
        nb = self._targets[k]
        w = self._weights[k]
        dv = np.repeat(self._dist[b], counts)
        dn = self._dist[nb]
        valid = self._settled[nb] & (dn + w == dv)
        key1 = np.where(valid, dn, math.inf)
        m1 = _segment_min(np, key1, offsets, counts, math.inf)
        tie = valid & (dn == np.repeat(m1, counts))
        key2 = np.where(tie, nb, self._n)
        m2 = _segment_min(np, key2, offsets, counts, self._n)
        has = np.isfinite(m1)
        self._pred[b[has]] = m2[has]

    def _flush(self) -> None:
        """Move the accumulated bucket-level tallies into the shared
        counters (documented as not comparable with heap totals)."""
        c = self.counters
        c.heap_pops += self._pops
        c.heap_pushes += self._pushes
        c.edges_relaxed += self._relaxed
        c.vertices_settled += self._settles
        c.expansions_pruned += self._pruned
        self.expanded += self._settles
        self._pops = self._pushes = self._relaxed = 0
        self._pruned = self._settles = 0

    # ------------------------------------------------------------------
    # Stepping (API parity with the heap engines)
    # ------------------------------------------------------------------

    def tentative(self, v: int) -> Optional[float]:
        """Best label known for ``v`` -- settled, tentative, or None."""
        if self._dist is not None:
            d = self._dist[v]
            if d != math.inf:
                return float(d)
        return None

    def next_key(self) -> Optional[float]:
        """The distance at which the next vertex settles, or None.

        The global minimum unsettled tentative label is final (the
        Dijkstra invariant holds wave or no wave), so this is exact.
        """
        np = self._np
        masked = np.where(self._settled, math.inf, self._dist)
        lo = float(masked.min()) if self._n else math.inf
        return None if lo == math.inf else lo

    def is_exhausted(self) -> bool:
        return self.next_key() is None

    def settle_next(self) -> Optional[Tuple[int, float]]:
        """Settle and return the single nearest unsettled vertex.

        Provided for API parity; interleaving it with the bulk runs is
        sound (the minimum unsettled label is always final), but note
        the bulk runs settle whole buckets, so the combined settle
        order is not the heap engines' order.
        """
        np = self._np
        try:
            masked = np.where(self._settled, math.inf, self._dist)
            lo = float(masked.min()) if self._n else math.inf
            if lo == math.inf:
                return None
            v = int(np.flatnonzero(masked == lo)[0])
            one = np.asarray([v], dtype=np.int64)
            self._relax(one, -math.inf)
            self._settle(one)
            return v, lo
        finally:
            self._flush()

    # ------------------------------------------------------------------
    # Staged runs (bulk wave loops)
    # ------------------------------------------------------------------

    def run_until_settled(self, targets: Iterable[int]) -> bool:
        """Settle vertices until every target is settled; False when
        the (reachable, allowed) graph exhausts first.

        On success the settled set is exactly the closure
        ``{v : dist(v) <= max target distance}`` -- a superset of what
        a heap engine settles (which stops mid-tie at the last target),
        but identical on every read the DPS algorithms perform.
        """
        np = self._np
        t_list = [t for t in targets if 0 <= t < self._n]
        if not t_list:
            return True
        t_arr = np.asarray(sorted(set(t_list)), dtype=np.int64)
        try:
            while True:
                rem = t_arr[~self._settled[t_arr]]
                if rem.size == 0:
                    return True
                nxt = self._next_bucket(math.inf)
                if nxt is None:
                    return False  # unreachable targets stay unsettled
                T, bucket = nxt
                rem_dist = self._dist[rem]
                if bool((rem_dist <= T).all()):
                    # Final wave: trim the bucket at the farthest
                    # target so the closure property holds exactly.
                    d_star = float(rem_dist.max())
                    self._settle(bucket[self._dist[bucket] <= d_star])
                    return True
                self._settle(bucket)
        finally:
            self._flush()

    def run_until_beyond(self, radius: float) -> None:
        """Settle every vertex with distance <= ``radius``; the first
        vertex beyond it stays unsettled (Theorem 1's cut-off)."""
        try:
            while True:
                nxt = self._next_bucket(radius)
                if nxt is None:
                    return
                self._settle(nxt[1])
        finally:
            self._flush()

    def run_to_exhaustion(self) -> None:
        """Settle every reachable allowed vertex."""
        self.run_until_beyond(math.inf)

    # ------------------------------------------------------------------
    # Results / lifecycle
    # ------------------------------------------------------------------

    def tree(self) -> ShortestPathTree:
        """Return the current state as a :class:`ShortestPathTree`; the
        tree's ``dist``/``pred`` are live views over this search."""
        return ShortestPathTree(self.source, self.dist, self.pred,
                                exhausted=self.is_exhausted(),
                                settled_order=self.settled_order)

    def release(self) -> None:
        """Drop the scratch arrays; the views read empty afterwards.
        (No arena pool -- the arrays are per-search.)  Releasing twice
        is a no-op."""
        self._dist = None
        self._pred = None
        self._settled = None
        self._allowed = None


# ----------------------------------------------------------------------
# Dual-search / point-to-point wrappers
# ----------------------------------------------------------------------


def vec_bridge_domains(network: RoadNetwork, u: int, v: int,
                       targets: Iterable[int],
                       counters: Optional[SearchCounters] = None,
                       deadline: Optional[Deadline] = None):
    """Bridge-domain computation on the bucketed engine.

    Two independent wave searches stand in for the dual-heap
    alternation: the alternation only schedules *when* each side
    settles, never what it settles (each side stops at its own target
    closure), so the distances -- and with them the ``UD*``/``VD*``
    classification, evaluated vectorized with the dict loop's
    first-match-wins (``elif``) rule -- are identical.
    """
    from repro.shortestpath.bidirectional import BridgeDomains

    np = _require_backend()
    bridge_weight = network.edge_weight(u, v)
    target_list = sorted(set(targets))
    # One shared counter set: the two directions report as one search.
    search_u = VecDijkstraSearch(network, u, counters=counters,
                                 deadline=deadline)
    search_v = VecDijkstraSearch(network, v, counters=counters,
                                 deadline=deadline)
    search_u.run_until_settled(target_list)
    search_v.run_until_settled(target_list)
    ud_star: Set[int] = set()
    vd_star: Set[int] = set()
    if target_list:
        t = np.asarray(target_list, dtype=np.int64)
        both = search_u._settled[t] & search_v._settled[t]
        du = search_u._dist[t]
        dv = search_v._dist[t]
        in_ud = both & _in_domain_arr(np, du, dv + bridge_weight)
        in_vd = (both & _in_domain_arr(np, dv, du + bridge_weight)
                 & ~in_ud)
        ud_star = set(map(int, t[in_ud]))
        vd_star = set(map(int, t[in_vd]))
    return BridgeDomains(u, v, ud_star, vd_star, search_u, search_v)


def vec_bidirectional_ppsp(network: RoadNetwork, source: int, target: int,
                           allowed: Optional[Set[int]] = None,
                           counters: Optional[SearchCounters] = None,
                           deadline: Optional[Deadline] = None,
                           ) -> Tuple[float, List[int]]:
    """Point-to-point query on the bucketed engine.

    A single forward wave search (no bidirectional meeting rule -- the
    bucket engine has no per-pop frontier keys to compare).  The
    distance agrees with the bidirectional engines up to one path's
    accumulated float rounding (they sum two half-paths at the meeting
    vertex; this sums the forward path once), and the returned path is
    the canonical forward shortest path, which may differ from the
    meeting-point stitch when shortest paths tie.  Documented rather
    than reconciled: this entry point serves the Section VII-C
    comparisons, never DPS output.
    """
    if source == target:
        return 0.0, [source]
    if allowed is not None and target not in allowed:
        raise ValueError(f"source {target} not in the allowed set")
    search = VecDijkstraSearch(network, source, allowed=allowed,
                               counters=counters, deadline=deadline)
    try:
        if not search.run_until_settled([target]):
            raise ValueError(f"no path from {source} to {target}")
        return search.dist[target], reconstruct_path(search.pred,
                                                     source, target)
    finally:
        search.release()
