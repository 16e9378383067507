"""Endpoint tree table: the bridge-domain oracle of the RoadPart index.

RoadPart's Section V-B step needs, for every examined bridge ``(u, v)``,
the domains ``UD* = {x : dist(x,u) = dist(x,v) + |vu|}`` and ``VD*``
(symmetric) over the query vertices, and for a *valid* bridge (both
non-empty) the shortest paths between its endpoints and the domain
members.  Without an oracle a dual-heap Dijkstra computes both, once
per bridge and query.  :class:`HubOracle` computes them once per index
instead: for every distinct bridge endpoint (a *hub*) it runs one full
flat Dijkstra and keeps the whole shortest-path tree as two rows --

- ``dist``: float64 distance from the hub to every vertex (``+inf``
  where unreachable);
- ``pred``: int32 predecessor of every vertex in the hub's tree (``-1``
  at the hub itself and where unreachable).

A query then decides ``UD*``/``VD*`` from the two ``dist`` rows under
the dual-heap's own :func:`~repro.shortestpath.bidirectional._in_domain`
if/elif, and patches a valid bridge with
:func:`~repro.shortestpath.paths.collect_path_vertices` over the two
``pred`` rows.  No search runs at all.

**Memoised verdicts.**  Which domain a vertex falls in is a fact about
the bridge, not the query, and only about 6% of examined bridges are
valid (both domains non-empty, Theorem 5).  :meth:`HubOracle.screen`
therefore keeps one verdict byte per vertex for each bridge it screens
(unread, neither, ``UD``, ``VD``), filled the first time a query reads
that vertex's two cells; a query gathers its vertices' verdicts at C
level, reads the cells of the unread ones only, and builds the two
sets only for a valid bridge.  :meth:`HubOracle.domains` reads every
cell afresh and is the reference.  The memo costs at most ``|V|``
bytes per bridge (0.95 MB on EAST-S, 1/24 of the table).

**Why the rows equal the dual-heap trees.**  Each side of the dual heap
is a plain Dijkstra from its endpoint: the same heap entries pushed in
the same order as :meth:`FlatDijkstraSearch.run_to_exhaustion` would
push them, only interleaved with the other side and stopped early.  A
vertex's distance and predecessor are final once it settles, and every
vertex on the pred chain of a settled vertex settled before it, so the
truncated run and the full run agree on every target the dual heap
settles and on every chain it walks.  The DPS is therefore
byte-identical with and without the table (``--oracle none`` keeps the
dual heap as the reference the property tests compare against).

**The size trade.**  The table is ``|hubs| x |V|`` cells of 12 bytes,
about 19.5 MiB on EAST-S (141 hubs, 12,099 vertices).  A labelling
would win on a network with many bridges; ``repro index info`` prints
the row bytes so the trade stays visible.

Corrupt cells are caught where a query reads them: a ``dist`` value
that is NaN or negative, or a ``pred`` id outside ``[0, |V|)`` on a
chain walk, raises :class:`~repro.errors.IndexFormatError` naming the
file, the section and the hub.  A corrupt cell is never memoised, so
it raises on every read.  Loading checks only ``O(|hubs|)``
facts (:func:`oracle_from_payload`), so an mmap-loaded table is never
scanned.

``resolve_oracle_kind`` implements the build-time policy behind
``oracle="auto"``: a table when the network has bridges, no oracle
otherwise.
"""

from __future__ import annotations

import math
import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import IndexFormatError
from repro.graph.csr import CSRGraph
from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder, resolve_trace
from repro.shortestpath.bidirectional import _in_domain
from repro.shortestpath.flat import FlatDijkstraSearch
from repro.shortestpath.paths import collect_path_vertices

#: Build/query policies: ``auto`` (a table when there are bridges,
#: resolved by :func:`resolve_oracle_kind`) and ``none`` (no oracle).
ORACLE_POLICIES = ("auto", "none")

#: A target's verdict byte in a bridge's memo (:meth:`HubOracle.screen`):
#: not read yet, in neither domain, in ``UD*``, in ``VD*``.
_UNREAD, _NEITHER, _UD, _VD = 0, 1, 2, 3


def resolve_oracle_kind(kind: str, bridges: Iterable) -> str:
    """Resolve an oracle policy to ``"hub"`` or ``"none"``.

    ``auto`` builds the endpoint tree table when the network has
    bridges and nothing when it has none (an oracle could never be
    consulted).

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


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

#: Worker input, inherited via fork copy-on-write (see
#: :meth:`HubOracle.build`); cleared when the build is done.
_CTX: Dict[str, object] = {}


def _append_rows(csr: CSRGraph, hubs: Sequence[int], dist: array,
                 pred: array) -> None:
    """One full flat Dijkstra per hub, rows appended in hub order."""
    for hub in hubs:
        search = FlatDijkstraSearch(csr, hub)
        try:
            search.run_to_exhaustion()
            row_dist, row_pred = search.dense_rows()
        finally:
            search.release()
        dist += row_dist
        pred += row_pred


def _rows_worker(bounds: Tuple[int, int]) -> Tuple[bytes, bytes]:
    """Rows of ``hubs[lo:hi]`` in a fork worker, as raw bytes."""
    lo, hi = bounds
    dist, pred = array("d"), array("i")
    _append_rows(_CTX["csr"], _CTX["hubs"][lo:hi], dist, pred)
    return dist.tobytes(), pred.tobytes()


def _build_rows(csr: CSRGraph, hubs: Sequence[int],
                jobs: int) -> Tuple[array, array]:
    """Both row arrays, serially or across ``jobs`` fork workers.

    Workers take contiguous hub ranges and the parent appends their
    rows in range order, so the arrays are byte-identical to a serial
    build whatever ``jobs`` is.
    """
    global _CTX
    dist, pred = array("d"), array("i")
    if jobs <= 1 or len(hubs) < 2 or (
            "fork" not in multiprocessing.get_all_start_methods()):
        _append_rows(csr, hubs, dist, pred)
        return dist, pred
    # A few ranges per worker even out hubs with smaller components.
    step = max(1, -(-len(hubs) // (4 * jobs)))
    ranges = [(lo, min(lo + step, len(hubs)))
              for lo in range(0, len(hubs), step)]
    _CTX = {"csr": csr, "hubs": list(hubs)}
    try:
        with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("fork")) as pool:
            for row_dist, row_pred in pool.map(_rows_worker, ranges):
                dist.frombytes(row_dist)
                pred.frombytes(row_pred)
    finally:
        _CTX = {}
    return dist, pred


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------


class _PredRow:
    """One ``pred`` row as :func:`collect_path_vertices` walks it: every
    id is checked where it is read, so a corrupt cell raises instead of
    wrapping around (``-1``) or running off the row."""

    __slots__ = ("_table", "_hub", "_row", "_n")

    def __init__(self, table: "HubOracle", hub: int) -> None:
        self._table = table
        self._hub = hub
        self._row = table.pred_row(hub)
        self._n = len(self._row)

    def __getitem__(self, x: int) -> int:
        p = self._row[x]
        if 0 <= p < self._n:
            return p
        raise self._table._corrupt(
            1, self._hub, f"vertex {x} has predecessor {p} on a shortest"
                          f" path (expected an id in [0, {self._n}))")


def _gather(memo: bytearray, targets: Sequence[int]) -> bytes:
    """The verdict bytes of ``targets``, in order, gathered at C level."""
    if len(targets) > 1:
        return bytes(itemgetter(*targets)(memo))
    return bytes(memo[x] for x in targets)


class HubOracle:
    """The endpoint tree table: full ``dist``/``pred`` rows per hub.

    ``hubs`` are the distinct bridge endpoints, ascending; ``dist`` and
    ``pred`` hold one row of ``num_vertices`` cells per hub, hub-major
    -- ``array`` objects after a build, zero-copy views over the file
    after a binary load, which no query materialises (rows are
    ``memoryview`` slices).  ``source`` and ``sections`` name the file
    and the two row sections in corrupt-cell errors.
    """

    kind = "hub"

    def __init__(self, hubs: Sequence[int], dist, pred, num_vertices: int,
                 source: str = "<memory>",
                 sections: Tuple[str, str] = ("dist", "pred")) -> None:
        self._hubs: Tuple[int, ...] = tuple(hubs)
        self._row_of: Dict[int, int] = {h: i for i, h
                                         in enumerate(self._hubs)}
        self._n = num_vertices
        self._dist = memoryview(dist)
        self._pred = memoryview(pred)
        self._source = source
        self._sections = sections
        #: One verdict byte per vertex for each screened bridge, keyed
        #: by ``(u, v, weight)`` (see :meth:`screen`).
        self._verdicts: Dict[Tuple[int, int, float], bytearray] = {}

    @classmethod
    def build(cls, network: RoadNetwork,
              bridges: Iterable[Tuple[int, int]],
              trace: Optional[TraceRecorder] = None,
              jobs: int = 1) -> "HubOracle":
        """Run one full flat Dijkstra per distinct bridge endpoint.

        Always the flat kernel, whatever engine the rest of a build
        uses; ``jobs > 1`` spreads the hubs over fork workers with a
        byte-identical result.  The work is recorded as one ``trees``
        span under the caller's active span.
        """
        trace = resolve_trace(trace)
        hubs = sorted({e for bridge in bridges for e in bridge})
        csr = network.csr()
        with trace.span("trees"):
            dist, pred = _build_rows(csr, hubs, jobs)
        return cls(hubs, dist, pred, csr.num_vertices)

    # -- rows ------------------------------------------------------------

    @property
    def hubs(self) -> Tuple[int, ...]:
        return self._hubs

    def _row(self, rows: memoryview, hub: int) -> memoryview:
        i = self._row_of[hub]
        return rows[i * self._n:(i + 1) * self._n]

    def dist_row(self, hub: int) -> memoryview:
        """Distances from ``hub``, vertex-indexed (unchecked)."""
        return self._row(self._dist, hub)

    def pred_row(self, hub: int) -> memoryview:
        """Predecessors in ``hub``'s tree, vertex-indexed (unchecked)."""
        return self._row(self._pred, hub)

    def _corrupt(self, which: int, hub: int,
                 problem: str) -> IndexFormatError:
        return IndexFormatError(
            f"{self._source}: section {self._sections[which]!r}, row of"
            f" endpoint {hub}: {problem}; rebuild the index")

    # -- queries ---------------------------------------------------------

    def distance(self, hub: int, x: int) -> float:
        """The cell ``dist(hub, x)`` (``inf`` when unreachable); a NaN or
        negative cell raises :class:`~repro.errors.IndexFormatError`."""
        d = self._dist[self._row_of[hub] * self._n + x]
        if d >= 0.0:
            return d
        raise self._corrupt(0, hub, f"distance to vertex {x} is {d!r}"
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
            raise self._corrupt(0, hub, f"distance to vertex {x} is {bad!r}"
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
        du_row = self._row(self._dist, u)
        dv_row = self._row(self._dist, v)
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
            du_row = self._row(self._dist, u)
            dv_row = self._row(self._dist, v)
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
        the hub's ``pred`` row (members must be reachable)."""
        collect_path_vertices(_PredRow(self, hub), hub, members, into)

    # -- size and serialisation -----------------------------------------

    def entry_count(self) -> int:
        """Table cells, ``|hubs| x |V|`` -- the size driver."""
        return len(self._hubs) * self._n

    def row_bytes(self) -> Tuple[int, int]:
        """Bytes of the ``dist`` and the ``pred`` rows."""
        return self._dist.nbytes, self._pred.nbytes

    def describe(self) -> str:
        """One human line for build logs."""
        dist_bytes, pred_bytes = self.row_bytes()
        return (f"endpoint tree table, {len(self._hubs)} endpoints x"
                f" {self._n} vertices (dist rows"
                f" {dist_bytes / 2 ** 20:.1f} MiB, pred rows"
                f" {pred_bytes / 2 ** 20:.1f} MiB)")

    def to_payload(self) -> Dict[str, object]:
        """The serialisers' form: hub ids plus the two flat row
        buffers (the stored ones, not copies)."""
        return {"kind": "hub", "hubs": list(self._hubs),
                "dist": self._dist, "pred": self._pred}


# ----------------------------------------------------------------------
# Construction / serialisation entry points
# ----------------------------------------------------------------------


def build_oracle(network: RoadNetwork, kind: str,
                 bridges: Iterable[Tuple[int, int]],
                 trace: Optional[TraceRecorder] = None,
                 jobs: int = 1) -> Optional[HubOracle]:
    """Build the oracle a policy resolves to (``None`` for none).

    ``bridges`` may be any iterable, a generator included: it is
    materialised exactly once here, so the ``auto`` emptiness probe and
    the endpoint collection see the same elements.
    """
    bridges = list(bridges)
    if resolve_oracle_kind(kind, bridges) == "none":
        return None
    return HubOracle.build(network, bridges, trace=trace, jobs=jobs)


def oracle_from_payload(payload: Dict[str, object], num_vertices: int,
                        bridges: Iterable[Tuple[int, int]],
                        source: str = "<memory>",
                        sections: Tuple[str, str] = ("dist", "pred"),
                        ) -> HubOracle:
    """Rehydrate a table from its payload (JSON lists or zero-copy
    binary views -- both index loaders funnel through here).

    Checks only ``O(|hubs|)`` facts: the hub ids are sorted, unique,
    below ``num_vertices`` and exactly the endpoints of ``bridges``,
    and each row buffer holds ``|hubs| x num_vertices`` cells.  An
    unknown ``kind`` raises :class:`ValueError`; the rest raise
    :class:`~repro.errors.IndexFormatError` naming ``source``.
    """
    kind = payload.get("kind")
    if kind != "hub":
        raise ValueError(f"unknown oracle payload kind {kind!r}")
    if "label_hubs" in payload:
        raise IndexFormatError(
            f"{source}: the oracle holds hub labels from an older build"
            f" instead of an endpoint tree table; rebuild the index")
    hubs = list(payload["hubs"])
    bad = [h for h in hubs if not 0 <= h < num_vertices]
    if bad:
        raise IndexFormatError(
            f"{source}: oracle endpoint {bad[0]} out of range"
            f" (num_vertices {num_vertices})")
    if any(a >= b for a, b in zip(hubs, hubs[1:])):
        raise IndexFormatError(
            f"{source}: oracle endpoint ids are not sorted and unique")
    expected = sorted({e for bridge in bridges for e in bridge})
    if hubs != expected:
        raise IndexFormatError(
            f"{source}: oracle endpoints ({len(hubs)}) are not the"
            f" bridge endpoints ({len(expected)})")
    rows: List[object] = []
    for name, typecode, cells in zip(sections, "di",
                                     (payload["dist"], payload["pred"])):
        if isinstance(cells, list):  # a JSON payload
            try:
                cells = array(typecode, cells)
            except (TypeError, OverflowError) as exc:
                raise IndexFormatError(
                    f"{source}: section {name!r} holds a bad cell"
                    f" ({exc})") from exc
        if len(cells) != len(hubs) * num_vertices:
            raise IndexFormatError(
                f"{source}: section {name!r} holds {len(cells)} cells,"
                f" expected {len(hubs)} endpoints x {num_vertices}")
        rows.append(cells)
    return HubOracle(hubs, rows[0], rows[1], num_vertices, source=source,
                     sections=sections)
