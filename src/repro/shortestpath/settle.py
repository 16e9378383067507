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

Forked rounds
-------------
The rounds share only read-only inputs, so :func:`settle_targets`
spreads them over the CPUs the process may run on, through the fork
helper :mod:`repro.forkpool`.  Source ``i`` of the sorted sources
belongs to share ``i mod k``, so every share spreads across the window.
The caller runs share 0 and ``k − 1`` fork workers run the others, each
into its own vertex set and :class:`~repro.obs.counters.SearchCounters`.
The answer is the union of the shares' sets and the counters are their
sum; neither depends on the order the rounds ran in, so both equal the
serial loop's at any ``k``.

- *When.*  The caller runs the first round, then forks only when
  (rounds − 1) × that round's settles reach :data:`FORK_SETTLES` and
  :func:`~repro.forkpool.may_fork` allows it (``fork`` exists, no other
  thread is alive, not already inside a pool worker), with ``k`` the
  usable CPUs, at most one per round.  The rule is a count, so whether
  a query forks is deterministic.  Otherwise the serial loop runs.
- *Errors.*  A share stops at its first failing round and hands back
  the error with the source's position; the caller raises the one of
  the lowest position.  Every share ran all its rounds below that
  position, so this is the error the serial loop raises, the
  unreachable-target ValueError text and ``DeadlineExceeded`` alike
  (every share polls the same ``expires_at``).
- *Crashes.*  A share lost to a dead worker is re-run in the caller.
- *Phases.*  The caller times its own rounds as the serial loop does;
  opening the pool and waiting for the workers count under the first
  phase, merging their sets under the second.

:func:`repro.core.verify.verify_dps` deliberately stays on the
single-source engine: the checker must not share the kernel it checks.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from operator import itemgetter
from time import monotonic
from typing import (ContextManager, Dict, Iterable, List, NamedTuple,
                    Optional, Set, Tuple)

from repro.errors import DeadlineExceeded
from repro.forkpool import fork_pool, inherited, may_fork, usable_cpus
from repro.graph.network import RoadNetwork
from repro.obs.counters import NULL_COUNTERS, SearchCounters
from repro.shortestpath.deadline import DEADLINE_CHECK_INTERVAL, Deadline
from repro.shortestpath.flat import make_search, release_search, resolve_engine
from repro.shortestpath.paths import collect_path_vertices

#: Relative slack of the tie-settling bound ``F + TIE_TOL·(F + 1)``.
TIE_TOL = 1e-9

#: Settles the rounds after the first must add up to, estimated as
#: (rounds − 1) × the first round's settles, before they are forked.
#: Measured on EAST-S with two CPUs, a forked call costs about 12 ms
#: more than its rounds (opening and joining a one-worker pool about
#: 9 ms, copy-on-write faults the rest), and the half of the remaining
#: rounds that moves off the caller ran at 0.7–1 µs per estimated
#: settle: forking pays from about 2 × 12 ms / 0.8 µs.  ε = 10% hull
#: windows (17–30k) stay serial; ε = 10% BL-Q windows (28–55k, 1.1–1.2×
#: faster forked) and every larger window fork.
FORK_SETTLES = 30_000

#: A round's failure as a share reports it: the source's position in
#: the sorted sources and the error the round raised.
_Failure = Tuple[int, Exception]

_UNTIMED = nullcontext()


class SettleRun(NamedTuple):
    """What one :func:`settle_targets` call ran."""

    #: SSSP rounds, one per distinct source.
    rounds: int
    #: Processes that ran them, the caller included.
    workers: int


def settle_targets(network: RoadNetwork, sources: Iterable[int],
                   targets: Iterable[int], into: Set[int], *,
                   allowed: Optional[Set[int]] = None,
                   counters: Optional[SearchCounters] = None,
                   deadline: Optional[Deadline] = None,
                   engine: str = "flat",
                   phases: Optional[Tuple[ContextManager, ContextManager]]
                   = None) -> SettleRun:
    """Add the vertices of ``sp(s, t)`` for every ``s ∈ sources`` and
    ``t ∈ targets`` to ``into``; return the rounds run and how many
    processes ran them.

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

    Rounds after the first may run in fork workers (see "Forked
    rounds" above); ``into`` and ``counters`` end up the same either
    way.  After an error they hold the work of an unspecified subset of
    the rounds, as the serial loop's hold the rounds before the failing
    one.
    """
    resolved = resolve_engine(engine)
    source_list = sorted(set(sources))
    target_list = sorted(set(targets))
    if not source_list or not target_list:
        return SettleRun(0, 1)
    sssp, collect = phases or (_UNTIMED, _UNTIMED)
    tally = NULL_COUNTERS if counters is None else counters
    rounds = _Rounds(network, target_list, allowed, deadline, resolved)
    try:
        first = rounds.run(source_list[0], into, tally, sssp, collect)
        shares = _share_count(len(source_list), first)
        if shares == 1:
            for s in source_list[1:]:
                rounds.run(s, into, tally, sssp, collect)
        else:
            _run_forked(rounds, source_list, shares, into, tally, sssp,
                        collect)
    finally:
        rounds.close()
    return SettleRun(len(source_list), shares)


def _share_count(rounds: int, first_settles: int) -> int:
    """How many processes run the rounds: 1 (the serial loop) unless
    the rounds after the first are worth a fork and forking is safe."""
    if (rounds < 2 or (rounds - 1) * first_settles < FORK_SETTLES
            or not may_fork()):
        return 1
    return min(usable_cpus(), rounds)


def _run_forked(rounds: "_Rounds", sources: List[int], shares: int,
                into: Set[int], counters: SearchCounters,
                sssp: ContextManager, collect: ContextManager) -> None:
    """Every round but the first over ``shares`` processes: the caller
    runs share 0 (whose first round already ran) and ``shares − 1``
    fork workers run the others.  Raises the lowest-position failure."""
    failures: List[_Failure] = []
    done: List[Tuple[Set[int], SearchCounters, Optional[_Failure]]] = []
    lost: List[int] = []
    with fork_pool(shares - 1, rounds=rounds, sources=sources,
                   shares=shares) as pool:
        with sssp:
            futures = [(share, pool.submit(_share_worker, share))
                       for share in range(1, shares)]
        failure = rounds.run_share(sources, shares, shares, into, counters,
                                   sssp, collect)
        if failure is not None:
            failures.append(failure)
        with sssp:
            for share, future in futures:
                try:
                    done.append(future.result())
                except (BrokenProcessPool, OSError, EOFError):
                    lost.append(share)  # a dead worker: re-run below
            pool.shutdown()
    with collect:
        for vertices, tally, failure in done:
            into |= vertices
            counters.merge(tally)
            if failure is not None:
                failures.append(failure)
    for share in lost:
        failure = rounds.run_share(sources, share, shares, into, counters,
                                   sssp, collect)
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=itemgetter(0))[1]


def _share_worker(share: int
                  ) -> Tuple[Set[int], SearchCounters, Optional[_Failure]]:
    """A fork worker's share, into its own vertex set and counters."""
    context = inherited()
    rounds: _Rounds = context["rounds"]  # type: ignore[assignment]
    into: Set[int] = set()
    tally = SearchCounters()
    failure = rounds.run_share(context["sources"],  # type: ignore[arg-type]
                               share, context["shares"],  # type: ignore
                               into, tally, _UNTIMED, _UNTIMED)
    return into, tally, failure


def _unreachable(s: int, unreached: List[int], total: int) -> ValueError:
    return ValueError(
        f"graph is disconnected: {len(unreached)} of {total} targets"
        f" unreachable from {s} (e.g. {unreached[:3]})")


class _Rounds:
    """What every round of one call reads: the targets, the ``allowed``
    set, the deadline, the reference engine and, unless the reference
    runs every round, the goal-directed kernel.  Fork workers inherit
    it, the kernel's warm ``h`` cache included."""

    __slots__ = ("network", "targets", "allowed", "deadline", "reference",
                 "kernel")

    def __init__(self, network: RoadNetwork, targets: List[int],
                 allowed: Optional[Set[int]], deadline: Optional[Deadline],
                 engine: str) -> None:
        self.network = network
        self.targets = targets
        self.allowed = allowed
        self.deadline = deadline
        self.reference = "dict" if engine == "dict" else "flat"
        self.kernel: Optional[_GoalDirected] = None
        if engine != "dict" and network.lower_bound_scale() > 0.0:
            self.kernel = _GoalDirected(network, targets, allowed, deadline)

    def close(self) -> None:
        if self.kernel is not None:
            self.kernel.close()

    def run(self, s: int, into: Set[int], counters: SearchCounters,
            sssp: ContextManager, collect: ContextManager) -> int:
        """One round from ``s`` into ``into``; returns how many vertices
        it settled."""
        kernel = self.kernel
        if kernel is not None:
            with sssp:
                settled = kernel.settle(s, counters)
            if settled:
                with collect:
                    collect_path_vertices(kernel.pred, s, self.targets,
                                          into)
                return settled
        return _reference_round(self.network, s, self.targets, into,
                                self.allowed, counters, self.deadline,
                                self.reference, sssp, collect)

    def run_share(self, sources: List[int], start: int, step: int,
                  into: Set[int], counters: SearchCounters,
                  sssp: ContextManager, collect: ContextManager,
                  ) -> Optional[_Failure]:
        """The rounds from ``sources[start::step]``, stopping at the
        first that raises the serial loop's errors; returns that
        round's failure, or None."""
        for position in range(start, len(sources), step):
            try:
                self.run(sources[position], into, counters, sssp, collect)
            except (ValueError, DeadlineExceeded) as exc:
                return position, exc
        return None


def _reference_round(network: RoadNetwork, s: int, target_list: List[int],
                     into: Set[int], allowed: Optional[Set[int]],
                     counters: SearchCounters,
                     deadline: Optional[Deadline], engine: str,
                     sssp, collect) -> int:
    """One single-source round in the reference settle order; returns
    how many vertices it settled."""
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
        return len(search.settled_order)
    finally:
        release_search(search)  # the round's views are dead either way


class _GoalDirected:
    """Per-call state of the goal-directed kernel: one pooled arena,
    the ``allowed`` stamp, the targets' bounding box and the lazy
    ``h`` cache shared by every round."""

    __slots__ = ("csr", "arena", "pred", "adjacency", "coords", "kappa",
                 "box", "h", "targets", "allowed_gen", "deadline")

    def __init__(self, network: RoadNetwork, target_list: List[int],
                 allowed: Optional[Set[int]],
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
        self.deadline = deadline

    def close(self) -> None:
        if self.arena is not None:
            arena, self.arena = self.arena, None
            self.csr.release_arena(arena)

    def settle(self, s: int, counters: SearchCounters) -> Optional[int]:
        """Run one round from ``s``: settle every target and every tied
        predecessor, leaving the canonical predecessors in :attr:`pred`,
        and add its operation counts to ``counters``.  Returns how many
        vertices it settled, or None when the round met a zero-length
        arc (the caller re-runs it in reference order); raises
        ValueError when a target is unreachable.  The arena's ``dist``
        is all-inf again on every exit."""
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
                    return None
            if remaining:
                raise _unreachable(s, sorted(remaining), len(self.targets))
            return len(order)
        finally:
            for v in order:
                dist[v] = inf
            for _, v in heap:
                dist[v] = inf
            # Every pop settles or is stale, and the heap started with
            # the seed, so pushes = pops + what is left in the heap.
            tally = counters
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
