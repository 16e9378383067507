"""Many-to-many target settling: the loop behind BL-Q and the hull method.

BL-Q (Section III-A) and the convex hull method (Section VI) both run
"one SSSP per source until every target settles, then walk the
predecessors of every target".  :func:`settle_targets` is that loop,
once, with its release-on-exception and unreachable-target handling.

Engines
-------
``engine="dict"`` runs the reference: one
:class:`~repro.shortestpath.dijkstra.DijkstraSearch` per source.  The
default ``flat`` runs the *goal-directed kernel* below, whose answers
are byte-identical to the reference.

The goal-directed kernel
------------------------
Dijkstra's ball grows away from the targets as fast as towards them.
The kernel is A* aimed at the targets' bounding box ``B`` with the
Euclidean lower bound of Section IV-B.3::

    h(v) = κ · ‖v, B‖,   κ = (1 − 2⁻²⁰) / metric_violation_ratio(G)

Every edge satisfies ``|uv| ≥ ‖uv‖ / ratio``, so ``h`` never exceeds the
distance to any target and ``h(u) − h(v) ≤ (1 − 2⁻²⁰)·|uv|``: it is
admissible and consistent with a margin that absorbs the rounding of
``h`` itself.  ``κ`` is computed once per network and cached
(:meth:`RoadNetwork.lower_bound_scale`); a zero-weight edge between
distinct points makes ``κ = 0``, and every round then runs the
reference order.  ``h`` is evaluated lazily, for pushed vertices only,
and cached across the rounds of one call (the targets, hence ``B``, are
shared).

Exactness.  BL-Q's answer is the union of one *canonical* shortest path
per pair, so the kernel must reproduce the reference's predecessors,
not just its distances:

- *Canonical predecessors.*  The heap is keyed on ``(g + h, v)``.  A
  strictly shorter label updates ``dist`` and ``pred``; an equal label
  replaces ``pred[v]`` by ``u`` when ``(dist[u], u) < (dist[pred[v]],
  pred[v])``.  This argmin is the predecessor the reference's settle
  order produces when every arc has positive length.  The reference
  keeps as ``pred[v]`` the first settled neighbour whose relaxation
  reached the final label.  With positive arcs, every vertex at
  distance ``d`` is pushed with key ``(d, v)`` by a neighbour settled
  strictly below ``d``, so all of them are in the heap before the first
  pop at ``d`` and settle in id order.  That first neighbour is then
  the argmin of ``(dist[u], u)`` over ``{u : dist[u] + w(u, v) ==
  dist[v]}`` (exact float equality).
- *Tie settling.*  After the last target settles at key ``F`` the
  kernel keeps popping while the key is at most ``F + 1e-9·(F + 1)``:
  every vertex on a shortest path to a target has key ``≤ F``, so every
  tied predecessor has relaxed before the walk.
- *Reopening.*  A settled vertex whose label later improves (float
  rounding in ``h``) is pushed and expanded again.
- *Zero-length arcs.*  An arc with ``dist[u] + w == dist[u]`` (a zero
  weight, or one absorbed by rounding) lets equal-distance vertices
  settle out of id order, where the argmin rule no longer matches.  A
  round that relaxes such an arc is re-run in reference order
  (:class:`~repro.shortestpath.flat.FlatDijkstraSearch`).

Scratch comes from the CSR :class:`~repro.shortestpath.arena.ArenaPool`
(one arena per call; each round starts a new generation and restores
the all-inf ``dist`` invariant before the next round or on any error).
Counters count goal-directed settles, flushed once per round, so under
``flat`` they are smaller than ``dict``'s for the same answer.

:func:`repro.core.verify.verify_dps` deliberately stays on the
single-source engine: the checker must not share the kernel it checks.
"""

from __future__ import annotations

import heapq
import math
from contextlib import nullcontext
from time import monotonic
from typing import ContextManager, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import DeadlineExceeded
from repro.graph.network import RoadNetwork
from repro.obs.counters import NULL_COUNTERS, SearchCounters
from repro.shortestpath.deadline import DEADLINE_CHECK_INTERVAL, Deadline
from repro.shortestpath.flat import make_search, release_search, resolve_engine
from repro.shortestpath.paths import collect_path_vertices

#: Relative slack of the tie-settling bound ``F + TIE_TOL·(F + 1)``.
TIE_TOL = 1e-9


def settle_targets(network: RoadNetwork, sources: Iterable[int],
                   targets: Iterable[int], into: Set[int], *,
                   allowed: Optional[Set[int]] = None,
                   counters: Optional[SearchCounters] = None,
                   deadline: Optional[Deadline] = None,
                   engine: str = "flat",
                   phases: Optional[Tuple[ContextManager, ContextManager]]
                   = None) -> int:
    """Add the vertices of ``sp(s, t)`` for every ``s ∈ sources`` and
    ``t ∈ targets`` to ``into``; return the number of rounds run.

    One round per source (in id order) settles every target, then walks
    the canonical predecessor chains.  ``allowed`` restricts the graph
    to a vertex subset (the hull's base DPS); ``counters`` receives the
    operation counts; ``deadline`` bounds all rounds together (an
    expired round restores its scratch and lets
    :class:`~repro.errors.DeadlineExceeded` propagate).  ``phases``,
    when given, is a pair of re-enterable timers such as
    :meth:`QueryStats.phase <repro.obs.stats.QueryStats.phase>`
    contexts: each round's settling runs under the first and its path
    walk under the second.  A target that some source cannot reach
    raises ValueError.  Either side empty runs no round.
    """
    resolved = resolve_engine(engine)
    source_list = sorted(set(sources))
    target_list = sorted(set(targets))
    if not source_list or not target_list:
        return 0
    sssp, collect = phases or (nullcontext(), nullcontext())
    reference = "dict" if resolved == "dict" else "flat"
    kernel = None
    if resolved != "dict" and network.lower_bound_scale() > 0.0:
        kernel = _GoalDirected(network, target_list, allowed, counters,
                               deadline)
    try:
        for s in source_list:
            if kernel is not None:
                with sssp:
                    exact = kernel.settle(s)
                if exact:
                    with collect:
                        collect_path_vertices(kernel.pred, s, target_list,
                                              into)
                    continue
            _reference_round(network, s, target_list, into, allowed,
                             counters, deadline, reference, sssp, collect)
    finally:
        if kernel is not None:
            kernel.close()
    return len(source_list)


def _unreachable(s: int, unreached: List[int], total: int) -> ValueError:
    return ValueError(
        f"graph is disconnected: {len(unreached)} of {total} targets"
        f" unreachable from {s} (e.g. {unreached[:3]})")


def _reference_round(network: RoadNetwork, s: int, target_list: List[int],
                     into: Set[int], allowed: Optional[Set[int]],
                     counters: Optional[SearchCounters],
                     deadline: Optional[Deadline], engine: str,
                     sssp, collect) -> None:
    """One single-source round in the reference settle order."""
    search = make_search(network, s, allowed=allowed, counters=counters,
                         engine=engine, deadline=deadline)
    try:
        with sssp:
            settled_all = search.run_until_settled(target_list)
        if not settled_all:
            raise _unreachable(s, [t for t in target_list
                                   if t not in search.dist],
                               len(target_list))
        with collect:
            collect_path_vertices(search.pred, s, target_list, into)
    finally:
        release_search(search)  # the round's views are dead either way


class _GoalDirected:
    """Per-call state of the goal-directed kernel: one pooled arena,
    the ``allowed`` stamp, the targets' bounding box and the lazy
    ``h`` cache shared by every round."""

    __slots__ = ("csr", "arena", "pred", "adjacency", "coords", "kappa",
                 "box", "h", "targets", "allowed_gen", "counters",
                 "deadline")

    def __init__(self, network: RoadNetwork, target_list: List[int],
                 allowed: Optional[Set[int]],
                 counters: Optional[SearchCounters],
                 deadline: Optional[Deadline]) -> None:
        self.csr = network.csr()
        self.arena = self.csr.acquire_arena()
        self.pred = self.arena.pred
        self.adjacency = network.adjacency
        coords = network.coords
        self.coords = coords
        self.kappa = network.lower_bound_scale()
        xs = [coords[t][0] for t in target_list]
        ys = [coords[t][1] for t in target_list]
        self.box = (min(xs), max(xs), min(ys), max(ys))
        self.h: Dict[int, float] = {}
        self.targets = frozenset(target_list)
        self.allowed_gen = 0
        if allowed is not None:
            self.allowed_gen = self.arena.new_allowed_generation()
            stamp = self.arena.allowed
            n = len(stamp)
            for v in allowed:
                if 0 <= v < n:
                    stamp[v] = self.allowed_gen
        self.counters = NULL_COUNTERS if counters is None else counters
        self.deadline = deadline

    def close(self) -> None:
        if self.arena is not None:
            arena, self.arena = self.arena, None
            self.csr.release_arena(arena)

    def settle(self, s: int) -> bool:
        """Run one round from ``s``: settle every target and every tied
        predecessor, leaving the canonical predecessors in :attr:`pred`.
        Returns False when the round met a zero-length arc (the caller
        re-runs it in reference order); raises ValueError when a target
        is unreachable.  The arena's ``dist`` is all-inf again on every
        exit."""
        arena = self.arena
        allowed = arena.allowed if self.allowed_gen else None
        agen = self.allowed_gen
        if allowed is not None and allowed[s] != agen:
            raise ValueError(f"source {s} not in the allowed set")
        deadline = self.deadline
        if deadline is not None:
            deadline.check()
        gen = arena.new_generation()
        dist = arena.dist
        pred = arena.pred
        settled = arena.settled
        adjacency = self.adjacency
        hcache = self.h
        hget = hcache.get
        h_of = self._h
        heappop = heapq.heappop
        heappush = heapq.heappush
        remaining = set(self.targets)
        discard = remaining.discard
        inf = math.inf

        dist[s] = 0.0
        hs = hget(s)
        if hs is None:
            hs = hcache[s] = h_of(s)
        heap = [(hs, s)]
        order: List[int] = []
        order_append = order.append
        stale = relaxed = pruned = 0
        flat = False
        bound = inf
        dl_ticks = DEADLINE_CHECK_INTERVAL
        try:
            while heap:
                f, u = heappop(heap)
                if f > bound:
                    heap.append((f, u))  # still dirty: reset below
                    break
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
                            raise DeadlineExceeded(deadline.describe())
                g = dist[u]
                arcs = adjacency[u]
                relaxed += len(arcs)
                for v, w in arcs:
                    if allowed is not None and allowed[v] != agen:
                        pruned += 1
                        continue
                    c = g + w
                    dv = dist[v]
                    if c < dv:
                        dist[v] = c
                        pred[v] = u
                        if c == g:
                            flat = True
                        if settled[v] == gen:
                            settled[v] = 0  # reopen
                        hv = hget(v)
                        if hv is None:
                            hv = hcache[v] = h_of(v)
                        heappush(heap, (c + hv, v))
                    elif c == dv and v != s:
                        if c == g:
                            flat = True
                        p = pred[v]
                        dp = dist[p]
                        if g < dp or (g == dp and u < p):
                            pred[v] = u
                if remaining:
                    discard(u)
                    if not remaining:
                        bound = f + TIE_TOL * (f + 1.0)
                if flat:
                    return False
            if remaining:
                raise _unreachable(s, sorted(remaining), len(self.targets))
            return True
        finally:
            for v in order:
                dist[v] = inf
            for _, v in heap:
                dist[v] = inf
            # Every pop settles or is stale, and the heap started with
            # the seed, so pushes = pops + what is left in the heap.
            tally = self.counters
            count = len(order)
            tally.heap_pops += count + stale
            tally.heap_pushes += count + stale + len(heap)
            tally.stale_skips += stale
            tally.edges_relaxed += relaxed
            tally.vertices_settled += count
            tally.expansions_pruned += pruned

    def _h(self, v: int) -> float:
        """``κ`` times the Euclidean distance from ``v`` to the box."""
        x, y = self.coords[v]
        xmin, xmax, ymin, ymax = self.box
        dx = xmin - x if x < xmin else x - xmax if x > xmax else 0.0
        dy = ymin - y if y < ymin else y - ymax if y > ymax else 0.0
        return self.kappa * math.sqrt(dx * dx + dy * dy)
