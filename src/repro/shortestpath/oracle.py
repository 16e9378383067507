"""Endpoint tree table: the bridge-domain oracle of the RoadPart index.

RoadPart's Section V-B step needs, for every examined bridge ``(u, v)``,
the domains ``UD* = {x : dist(x,u) = dist(x,v) + |vu|}`` and ``VD*``
(symmetric) over the query vertices, and for a *valid* bridge (both
non-empty) the shortest paths between its endpoints and the domain
members.  Without an oracle a dual-heap Dijkstra computes both, once
per bridge and query.  :class:`HubOracle` computes them once per index
instead: for every distinct bridge endpoint (a *hub*) it runs one full
flat Dijkstra and keeps its ``dist`` row, the float64 distance from the
hub to every vertex (``+inf`` where unreachable).

A query then decides ``UD*``/``VD*`` from the two ``dist`` rows under
the dual-heap's own :func:`~repro.shortestpath.bidirectional._in_domain`
if/elif, and patches a valid bridge with
:func:`~repro.shortestpath.paths.collect_path_vertices` over the two
hubs' trees, whose predecessors it derives from the same rows.  No
search runs at all.

**Derived predecessors.**  ``pred(x)`` in a hub's tree is the argmin of
``(dist[u], u)`` over the neighbours ``u`` of ``x`` with ``dist[u] +
w(u, x) == dist[x]`` -- exact float equality on the expression the
relaxation computes.  That is the predecessor the flat kernel assigns
whenever no relaxation absorbs its arc (``fl(d + w) > d``): every
vertex at label ``D`` is then pushed, with key ``(D, x)``, by a
neighbour settled strictly below ``D``, so vertices with equal labels
settle in id order and the kernel keeps as ``pred(x)`` the first
settled neighbour whose relaxation reached ``D`` (the argument of
:mod:`repro.shortestpath.settle`'s docstring).  :func:`table_obstacle`
proves the no-absorption condition once per build in ``O(|E|)``; on a
network that fails it, ``oracle="auto"`` attaches no table and RoadPart
answers with the dual heap, the reference.  :meth:`HubOracle.preds`
memoises the derived predecessors per hub in one int32 array of ``|V|``
cells (``-1``: not derived yet), allocated on the first walk from that
hub, so the memo never outgrows the ``|hubs| x |V| x 4`` bytes a stored
predecessor row would take, and a repeated window reads its steps
from the memo instead of deriving them again.

**Memoised verdicts.**  Which domain a vertex falls in is a fact about
the bridge, not the query, and only about 6% of examined bridges are
valid (both domains non-empty, Theorem 5).  :meth:`HubOracle.screen`
therefore keeps one verdict byte per vertex for each bridge it screens
(unread, neither, ``UD``, ``VD``), filled the first time a query reads
that vertex's two cells; a query gathers its vertices' verdicts at C
level, reads the cells of the unread ones only, and builds the two
sets only for a valid bridge.  :meth:`HubOracle.domains` reads every
cell afresh and is the reference.  The memo costs at most ``|V|``
bytes per bridge (0.95 MB on EAST-S, 1/14 of the table).

**Why the rows equal the dual-heap trees.**  Each side of the dual heap
is a plain Dijkstra from its endpoint: the same heap entries pushed in
the same order as :meth:`FlatDijkstraSearch.run_to_exhaustion` would
push them, only interleaved with the other side and stopped early.  A
vertex's distance and predecessor are final once it settles, and every
vertex on the pred chain of a settled vertex settled before it, so the
truncated run and the full run agree on every target the dual heap
settles and on every chain it walks -- and the derived predecessors
are the full run's.  The DPS is therefore byte-identical with and
without the table (``--oracle none`` keeps the dual heap as the
reference the property tests compare against).

**The size trade.**  The table is ``|hubs| x |V|`` cells of 8 bytes,
13.0 MiB on EAST-S (141 hubs, 12,099 vertices).  A labelling would win
on a network with many bridges; ``repro index info`` prints the row
bytes so the trade stays visible.

Corrupt cells are caught where a query reads them: a ``dist`` value
that is NaN or negative, or, on a tree walk, a vertex whose cell is not
finite or that has no neighbour strictly below it on a shortest path,
raises :class:`~repro.errors.IndexFormatError` naming the file, the
section and the hub.  A corrupt read is never memoised, so it raises
on every read, and every walk step strictly lowers the cell, so a walk
ends.  Loading checks only ``O(|hubs|)`` facts (the hub ids and the row
count, in :mod:`repro.core.roadpart.binfmt`), so an mmap-loaded table
is never scanned.

``resolve_oracle_kind`` implements the build-time policy behind
``oracle="auto"``: a table when the network has bridges, no oracle
otherwise.
"""

from __future__ import annotations

import math
import mmap
from array import array
from operator import itemgetter
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.errors import IndexFormatError
from repro.forkpool import fork_pool, inherited, pool_size
from repro.graph.csr import CSRGraph
from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder, resolve_trace
from repro.shortestpath.bidirectional import _in_domain
from repro.shortestpath.flat import FlatDijkstraSearch
from repro.shortestpath.paths import collect_path_vertices

#: Build/query policies: ``auto`` (a table when there are bridges,
#: resolved by :func:`resolve_oracle_kind`) and ``none`` (no oracle).
ORACLE_POLICIES = ("auto", "none")

#: Settles, hubs × |V|, the table rows must add up to before they fork
#: (:func:`_build_rows`).  Measured on grids of 840–3,600 vertices with
#: two CPUs: a settle costs 0.9 µs and a forked table about 15–29 ms
#: more than half the serial one, so forking pays from about
#: 2 × 20 ms / 0.9 µs ≈ 45,000 settles, and it measured 1.3× at
#: 66,000–91,000.  Below 100,000 that saves under 25 ms a build, so the
#: threshold sits there and the test suite's networks (at most 66,360
#: settles) keep the serial rows; EAST-S (1.7 million) forks at 1.74×.
FORK_ROW_SETTLES = 100_000

#: A target's verdict byte in a bridge's memo (:meth:`HubOracle.screen`):
#: not read yet, in neither domain, in ``UD*``, in ``VD*``.
_UNREAD, _NEITHER, _UD, _VD = 0, 1, 2, 3


def resolve_oracle_kind(kind: str, bridges: Iterable) -> str:
    """Resolve an oracle policy to ``"hub"`` or ``"none"``.

    ``auto`` builds the endpoint tree table when the network has
    bridges and nothing when it has none (an oracle could never be
    consulted); :func:`build_oracle` further leaves it out on a network
    that :func:`table_obstacle` refuses.

    Any iterable is accepted: sized containers are probed with
    ``len()`` and never consumed; only a non-sized iterable (a
    generator, say) is drained by the emptiness probe, so callers that
    need the bridges afterwards must materialise first -- as
    :func:`build_oracle` does.
    """
    if kind not in ORACLE_POLICIES:
        raise ValueError(
            f"unknown oracle kind {kind!r}; choose from {ORACLE_POLICIES}")
    if kind == "auto":
        if hasattr(bridges, "__len__"):
            return "hub" if len(bridges) else "none"
        return "hub" if any(True for _ in bridges) else "none"
    return kind


def table_obstacle(network: RoadNetwork) -> Optional[str]:
    """Why the endpoint tree table cannot serve ``network`` -- the first
    edge whose weight does not exceed ``ulp(2W)``, ``W`` the total edge
    weight -- or ``None`` when it can.

    Derived predecessors need ``fl(d + w) > d`` for every label ``d``
    and edge weight ``w``.  With ``u = 2⁻⁵³`` and ``n = |V| < 2⁴⁹``:

    - A label is the left-to-right float sum of the weights along its
      predecessor chain, a simple path of fewer than ``n`` edges, so it
      is at most ``(1 + γ)·L`` with ``γ = nu/(1 - nu)`` and ``L`` the
      chain's exact length, itself at most the exact total weight.
    - ``2W`` is the correctly rounded sum (:func:`math.fsum`) of the
      CSR arc weights, every edge once per direction, so every label
      ``d ≤ (1 + γ)·W/(1 - u) < 2W``.
    - ``ulp`` is non-decreasing on ``[0, ∞)``, so ``ulp(d) ≤ ulp(2W) <
      w``: the exact ``d + w`` exceeds ``d + ulp(d)``, the next float
      above ``d``, and round-to-nearest is monotone, so ``fl(d + w) ≥
      d + ulp(d) > d``.

    A zero, NaN or infinite weight fails the test (the last two make
    ``2W`` NaN or infinite), as does any weight too light for the
    network's scale (about ``7e-12`` on the catalog stand-ins, whose
    lightest edge weighs 0.72).  The test is two C-level passes over
    the arc weights; only a failure walks the edges to name one.
    """
    weights = network.csr().weights_list
    bound = math.ulp(math.fsum(weights))
    if min(weights, default=math.inf) > bound:
        return None
    u, v, weight = next(e for e in network.edges() if not e.weight > bound)
    return (f"edge ({u}, {v}) of weight {weight!r} does not exceed"
            f" ulp(2W) = {bound!r} (W the total edge weight), so a"
            f" relaxation may absorb it and the endpoint tree table"
            f" cannot derive its predecessors")


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _fill_rows(csr: CSRGraph, hubs: Sequence[int], rows: memoryview,
               lo: int, hi: int) -> None:
    """One full flat Dijkstra per hub of ``hubs[lo:hi]``, row ``i``
    written in place into ``rows[i·|V| : (i + 1)·|V|]``."""
    n = csr.num_vertices
    for i in range(lo, hi):
        search = FlatDijkstraSearch(csr, hubs[i])
        try:
            search.run_to_exhaustion()
            rows[i * n:(i + 1) * n] = search.dense_dist()
        finally:
            search.release()


def _rows_worker(bounds: Tuple[int, int]) -> Tuple[int, int]:
    """Fill the rows of ``hubs[lo:hi]`` in a fork worker, straight into
    the caller's shared pages; returns the range."""
    context = inherited()
    _fill_rows(context["csr"], context["hubs"],  # type: ignore[arg-type]
               context["rows"], *bounds)  # type: ignore[arg-type]
    return bounds


def _build_rows(csr: CSRGraph, hubs: Sequence[int]
                ) -> Tuple[memoryview, int]:
    """The ``dist`` rows as a read-only float64 view, and how many
    processes built them.

    The rows live in one anonymous shared mapping, allocated once
    whoever fills it.  When :func:`~repro.forkpool.pool_size` grants
    more than one process (see :data:`FORK_ROW_SETTLES`), fork workers
    fill ranges of a few rows each straight into it and hand back only
    the range.  Every row is written into its own slice, so the bytes
    equal a serial build's whatever the process count.  The view is
    read-only once built: later forks (BL-Q and hull rounds,
    :func:`~repro.serve.run_queries`) share the mapping, and none of
    them may write into the caller's table.
    """
    n = csr.num_vertices
    cells = len(hubs) * n
    rows = memoryview(mmap.mmap(-1, 8 * max(cells, 1))).cast("d")[:cells]
    processes = pool_size(cells, FORK_ROW_SETTLES, len(hubs))
    if processes == 1:
        _fill_rows(csr, hubs, rows, 0, len(hubs))
        return rows.toreadonly(), 1
    # A few ranges per worker even out hubs with smaller components.
    step = max(1, -(-len(hubs) // (4 * processes)))
    ranges = [(lo, min(lo + step, len(hubs)))
              for lo in range(0, len(hubs), step)]
    with fork_pool(processes, csr=csr, hubs=list(hubs),
                   rows=rows) as pool:
        # Reading every range back raises the first worker error.
        list(pool.map(_rows_worker, ranges))
    return rows.toreadonly(), processes


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------


class _TreeWalk:
    """One hub's shortest-path tree as :func:`collect_path_vertices`
    walks it: ``[x]`` is ``x``'s predecessor, read from the hub's memo or
    derived from its ``dist`` row (:meth:`HubOracle._derive`) and
    memoised."""

    __slots__ = ("_table", "_hub", "_row", "_memo")

    def __init__(self, table: "HubOracle", hub: int) -> None:
        self._table = table
        self._hub = hub
        self._row = table.dist_row(hub)
        memo = table._preds.get(hub)
        if memo is None:
            memo = table._preds[hub] = array("i", [-1]) * table._n
        self._memo = memo

    def __getitem__(self, x: int) -> int:
        p = self._memo[x]
        if p < 0:
            p = self._memo[x] = self._table._derive(self._hub, self._row, x)
        return p


def _gather(memo: bytearray, targets: Sequence[int]) -> bytes:
    """The verdict bytes of ``targets``, in order, gathered at C level."""
    if len(targets) > 1:
        return bytes(itemgetter(*targets)(memo))
    return bytes(memo[x] for x in targets)


class HubOracle:
    """The endpoint tree table: a full ``dist`` row per hub.

    ``hubs`` are the distinct bridge endpoints, ascending; ``dist``
    holds one row of ``|V|`` cells per hub, hub-major -- a read-only
    view over an anonymous shared mapping after a build, a zero-copy
    view over the file after a binary load, which no query materialises
    (rows are ``memoryview`` slices).
    ``network`` is the network the rows were built on; its adjacency
    is what :meth:`preds` derives the trees from.  ``source`` and
    ``section`` name the file and the row section in corrupt-cell
    errors.  The constructor trusts its inputs: the binary loader
    checks the hub ids and the row count before it builds one.
    """

    kind = "hub"

    def __init__(self, hubs: Sequence[int], dist, network: RoadNetwork,
                 source: str = "<memory>", section: str = "dist") -> None:
        self._hubs: Tuple[int, ...] = tuple(hubs)
        self._row_of: Dict[int, int] = {h: i for i, h
                                         in enumerate(self._hubs)}
        self._n = network.num_vertices
        self._adjacency = network.adjacency
        self._dist = memoryview(dist)
        self._source = source
        self._section = section
        #: One verdict byte per vertex for each screened bridge, keyed
        #: by ``(u, v, weight)`` (see :meth:`screen`).
        self._verdicts: Dict[Tuple[int, int, float], bytearray] = {}
        #: Derived predecessors per walked hub, ``-1`` where not derived
        #: yet (see :meth:`preds`).
        self._preds: Dict[int, array] = {}
        #: Processes that filled the rows (:meth:`build`); 1 for a
        #: loaded table.
        self.workers = 1

    @classmethod
    def build(cls, network: RoadNetwork,
              bridges: Iterable[Tuple[int, int]],
              trace: Optional[TraceRecorder] = None) -> "HubOracle":
        """Run one full flat Dijkstra per distinct bridge endpoint.

        Always the flat kernel, whatever engine the rest of a build
        uses.  The rows are written in place into one shared mapping,
        on every usable CPU once they add up to
        :data:`FORK_ROW_SETTLES` settles, with the serial build's bytes
        either way; :attr:`rows` is then a read-only view of it and
        :attr:`workers` says how many processes filled it.  The work is
        recorded as one ``trees`` span under the caller's active span.
        A network that :func:`table_obstacle` refuses raises
        :class:`ValueError` naming the edge, before any row work.
        """
        obstacle = table_obstacle(network)
        if obstacle is not None:
            raise ValueError(obstacle)
        trace = resolve_trace(trace)
        hubs = sorted({e for bridge in bridges for e in bridge})
        with trace.span("trees"):
            dist, workers = _build_rows(network.csr(), hubs)
        table = cls(hubs, dist, network)
        table.workers = workers
        return table

    # -- rows ------------------------------------------------------------

    @property
    def hubs(self) -> Tuple[int, ...]:
        return self._hubs

    @property
    def rows(self) -> memoryview:
        """Every ``dist`` row, hub-major: the stored buffer, not a
        copy."""
        return self._dist

    def dist_row(self, hub: int) -> memoryview:
        """Distances from ``hub``, vertex-indexed (unchecked)."""
        i = self._row_of[hub]
        return self._dist[i * self._n:(i + 1) * self._n]

    def preds(self, hub: int) -> _TreeWalk:
        """``hub``'s shortest-path tree: ``preds(hub)[x]`` is ``x``'s
        predecessor, derived from the ``dist`` row the first time it is
        read and memoised in the hub's ``|V|``-cell int32 array
        (allocated here, on the first walk from the hub)."""
        return _TreeWalk(self, hub)

    def _derive(self, hub: int, row: memoryview, x: int) -> int:
        """``x``'s predecessor in ``hub``'s tree: the argmin of
        ``(dist[u], u)`` over the neighbours ``u`` strictly below ``x``
        with ``dist[u] + w(u, x) == dist[x]`` (see the module
        docstring).  A cell that is not finite and non-negative, or a
        vertex with no such neighbour, raises
        :class:`~repro.errors.IndexFormatError`."""
        dx = row[x]
        if not 0.0 <= dx < math.inf:
            raise self._corrupt(hub, f"vertex {x} on a shortest path has"
                                     f" distance {dx!r} (expected a finite"
                                     f" value >= 0)")
        best, best_d = -1, dx
        for u, w in self._adjacency[x]:
            du = row[u]
            if du + w == dx and (du < best_d
                                 or (du == best_d and u < best)):
                best, best_d = u, du
        if best < 0:
            raise self._corrupt(hub, f"vertex {x} at distance {dx!r} has"
                                     f" no neighbour u below it with"
                                     f" dist(u) + w(u, {x}) == {dx!r}")
        return best

    def _corrupt(self, hub: int, problem: str) -> IndexFormatError:
        return IndexFormatError(
            f"{self._source}: section {self._section!r}, row of"
            f" endpoint {hub}: {problem}; rebuild the index")

    # -- queries ---------------------------------------------------------

    def distance(self, hub: int, x: int) -> float:
        """The cell ``dist(hub, x)`` (``inf`` when unreachable); a NaN or
        negative cell raises :class:`~repro.errors.IndexFormatError`."""
        d = self._dist[self._row_of[hub] * self._n + x]
        if d >= 0.0:
            return d
        raise self._corrupt(hub, f"distance to vertex {x} is {d!r}"
                                 f" (expected >= 0 or inf)")

    def _verdict(self, u: int, v: int, weight: float, du_row: memoryview,
                 dv_row: memoryview, x: int) -> int:
        """Target ``x``'s verdict from its two cells: targets
        unreachable from the bridge are in neither domain, the rest are
        in ``UD*`` when ``_in_domain(du, dv)`` and else in ``VD*`` when
        ``_in_domain(dv, du)`` -- :func:`flat_bridge_domains`'s own
        decision.  A NaN or negative cell raises
        :class:`~repro.errors.IndexFormatError`."""
        du = du_row[x]
        dv = dv_row[x]
        if not (du >= 0.0 and dv >= 0.0):
            hub, bad = (v, dv) if du >= 0.0 else (u, du)
            raise self._corrupt(hub, f"distance to vertex {x} is {bad!r}"
                                     f" (expected >= 0 or inf)")
        if du == math.inf or dv == math.inf:
            return _NEITHER
        if _in_domain(du, dv, weight):
            return _UD
        if _in_domain(dv, du, weight):
            return _VD
        return _NEITHER

    def domains(self, u: int, v: int, weight: float,
                targets: Iterable[int]) -> Tuple[Set[int], Set[int]]:
        """``(UD*, VD*)`` of bridge ``(u, v)`` over ``targets``, every
        target's verdict read afresh from the two ``dist`` rows (the
        reference for :meth:`screen`)."""
        du_row = self.dist_row(u)
        dv_row = self.dist_row(v)
        ud_star: Set[int] = set()
        vd_star: Set[int] = set()
        for x in targets:
            verdict = self._verdict(u, v, weight, du_row, dv_row, x)
            if verdict == _UD:
                ud_star.add(x)
            elif verdict == _VD:
                vd_star.add(x)
        return ud_star, vd_star

    def screen(self, u: int, v: int, weight: float,
               targets: Sequence[int],
               ) -> Optional[Tuple[Set[int], Set[int]]]:
        """Theorem 5's test of bridge ``(u, v)`` over ``targets``:
        ``(UD*, VD*)`` when both meet the targets, else ``None`` --
        exactly :meth:`domains` followed by the emptiness test.

        The bridge keeps one verdict byte per vertex, filled by
        :meth:`_verdict` the first time a query reads that vertex's two
        cells; later queries gather their targets' bytes at C level
        (an ``itemgetter`` over the memo), read only the unread ones and
        build the two sets only for a valid bridge.  A corrupt cell
        raises where it is first read and is never memoised, so it
        raises again on every read.  The memo costs at most ``|V|``
        bytes per bridge screened with its one weight.
        """
        key = (u, v, weight)
        memo = self._verdicts.get(key)
        if memo is None:
            memo = self._verdicts[key] = bytearray(self._n)
        verdicts = _gather(memo, targets)
        if _UNREAD in verdicts:
            du_row = self.dist_row(u)
            dv_row = self.dist_row(v)
            for x in targets:
                if not memo[x]:
                    memo[x] = self._verdict(u, v, weight, du_row, dv_row,
                                            x)
            verdicts = _gather(memo, targets)
        if _UD not in verdicts or _VD not in verdicts:
            return None
        return ({x for x, c in zip(targets, verdicts) if c == _UD},
                {x for x, c in zip(targets, verdicts) if c == _VD})

    def collect_paths(self, hub: int, members: Iterable[int],
                      into: Set[int]) -> None:
        """Add ``sp(hub, x)`` for every member to ``into`` by walking
        the hub's tree (:meth:`preds`; members must be reachable)."""
        collect_path_vertices(self.preds(hub), hub, members, into)

    # -- size ------------------------------------------------------------

    def entry_count(self) -> int:
        """Table cells, ``|hubs| x |V|`` -- the size driver."""
        return len(self._hubs) * self._n

    def row_bytes(self) -> int:
        """Bytes of the ``dist`` rows."""
        return self._dist.nbytes

    def describe(self) -> str:
        """One human line for build logs."""
        return (f"endpoint tree table, {len(self._hubs)} endpoints x"
                f" {self._n} vertices (dist rows"
                f" {self.row_bytes() / 2 ** 20:.1f} MiB)")


# ----------------------------------------------------------------------
# Construction entry point
# ----------------------------------------------------------------------


def build_oracle(network: RoadNetwork, kind: str,
                 bridges: Iterable[Tuple[int, int]],
                 trace: Optional[TraceRecorder] = None
                 ) -> Optional[HubOracle]:
    """Build the oracle a policy resolves to (``None`` for none, and
    under ``auto`` for a network that :func:`table_obstacle` refuses:
    RoadPart then answers with the dual heap).

    ``bridges`` may be any iterable, a generator included: it is
    materialised exactly once here, so the ``auto`` emptiness probe and
    the endpoint collection see the same elements.
    """
    bridges = list(bridges)
    if resolve_oracle_kind(kind, bridges) == "none":
        return None
    if table_obstacle(network) is not None:
        return None
    return HubOracle.build(network, bridges, trace=trace)
