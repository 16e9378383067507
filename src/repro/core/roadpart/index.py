"""The RoadPart index: offline construction and serialisation.

Construction (Section IV-B + V-A), ``O(ℓ²|V|log|V|)`` total:

1. find the bridges (spatial self-join over ``Rtree(E)``);
2. compute a contour of the network;
3. select ``ℓ`` border vertices equi-length on the contour;
4. run ``ℓ`` labelling rounds (one per border vertex, each computing its
   cuts by A* and flooding zones), splitting regions after every round;
5. keep, per vertex, only its region id and, per region, its full label
   vector.

The index is independent of any query; it can be serialised and
reloaded against the same network (the server-side artefact of the
paper's deployment story).  Two on-disk formats coexist:

- the legacy JSON layout (``roadpart-index-v1``, :meth:`save` /
  :meth:`load`) -- human-inspectable, parsed in full on load;
- the compact binary layout (``roadpart-index-bin-v4``,
  :meth:`save_binary` / :meth:`load_binary`, spec in
  :mod:`repro.core.roadpart.binfmt`) -- mmap-loaded so the ``O(|V|)``
  ``region_of`` array is a zero-copy view over shared pages; the
  serving daemon and fork workers all read the same physical memory.

:meth:`load_auto` sniffs the magic bytes and dispatches, so every
consumer (CLI, daemon, benches) accepts either file; ``repro index
convert`` translates between them.  Loads of both formats produce
indexes whose query answers are byte-identical (pinned by
``tests/core/roadpart/test_binary_index.py``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Union

from repro.errors import IndexFormatError
from repro.forkpool import may_fork

from repro.core.roadpart.border import select_borders
from repro.core.roadpart.bridges import BridgeLabelBits, EdgeKey, find_bridges
from repro.core.roadpart.contour import Contour, compute_contour
from repro.core.roadpart.labeling import CutCache, label_round
from repro.core.roadpart.parallel import run_parallel_labeling
from repro.core.roadpart.regions import RegionBuilder, RegionSet
from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder, resolve_trace
from repro.shortestpath.oracle import (
    HubOracle,
    build_oracle,
    oracle_from_payload,
    resolve_oracle_kind,
)


def read_index_json(path: Union[str, os.PathLike]) -> Dict:
    """Parse a JSON index file into its top-level object.

    The one JSON entry point of :meth:`RoadPartIndex.load` and ``repro
    index info``: a file that is not ASCII JSON, or whose top level is
    not an object, raises :class:`~repro.errors.IndexFormatError`
    naming the path.
    """
    with open(path, "rb") as stream:
        raw = stream.read()
    try:
        payload = json.loads(raw.decode("ascii"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise IndexFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise IndexFormatError(
            f"{path}: expected a JSON object, got"
            f" {type(payload).__name__}")
    return payload


@dataclass
class IndexBuildStats:
    """Instrumentation of one index build (Table I's indexing columns)."""

    build_seconds: float = 0.0
    bridge_find_seconds: float = 0.0
    contour_seconds: float = 0.0
    labeling_seconds: float = 0.0
    contour_strategy_used: str = ""
    contour_length: int = 0
    raycast_calls: int = 0
    pocket_count: int = 0
    widened_labels: int = 0
    astar_expanded: int = 0
    #: cuts that had to run on the full graph because the planar skeleton
    #: disconnects the border pair; non-zero weakens the zone guarantees
    #: (see repro.core.roadpart.labeling.CutCache).
    fallback_cuts: int = 0
    #: endpoint tree table construction phase (0 when oracle="none").
    oracle_seconds: float = 0.0
    oracle_kind: str = "none"
    #: table cells, endpoints x |V| (0 without a table).
    oracle_entries: int = 0


@dataclass
class RoadPartIndex:
    """The built index.

    ``regions`` carries the vertex → region mapping and region label
    vectors; ``bridges`` the crossing-edge set; ``border_vertex_ids`` the
    ``ℓ`` border vertices in contour order (their order defines the label
    dimensions).  ``bridge_bits`` is derived at construction, never
    stored: the bridges' endpoint-label bitsets that classify them all
    against a window at once (Observation 1, see
    :class:`~repro.core.roadpart.bridges.BridgeLabelBits`).
    """

    network: RoadNetwork
    border_vertex_ids: List[int]
    regions: RegionSet
    bridges: FrozenSet[EdgeKey]
    contour: Optional[Contour] = None
    stats: IndexBuildStats = field(default_factory=IndexBuildStats)
    #: The endpoint tree table answering every bridge (see
    #: :mod:`repro.shortestpath.oracle`); ``None`` when built with
    #: ``oracle="none"`` or over a network without bridges.
    oracle: Optional[HubOracle] = None
    bridge_bits: BridgeLabelBits = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        self.bridge_bits = BridgeLabelBits(self.bridges, self.regions)

    @property
    def border_count(self) -> int:
        """``ℓ = |B|``."""
        return len(self.border_vertex_ids)

    def index_size_bytes(self) -> int:
        """Estimate the serialised index footprint: one 32-bit region id
        per vertex, two 16-bit zone numbers per region label dimension,
        and two 32-bit endpoints per bridge -- the ``O(|V| + ℓ|R|)``
        storage argument of Section IV-A."""
        per_vertex = 4 * len(self.regions.region_of)
        per_region = 4 * self.regions.dimensions * self.regions.region_count
        per_bridge = 8 * len(self.bridges)
        return per_vertex + per_region + per_bridge

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        # list() also materialises the memoryview-backed region_of of an
        # mmap-loaded index, so binary -> JSON conversion round-trips.
        out = {
            "format": "roadpart-index-v1",
            "num_vertices": self.network.num_vertices,
            "border_vertex_ids": list(self.border_vertex_ids),
            "region_of": list(self.regions.region_of),
            "region_vectors": [[list(label) for label in vector]
                               for vector in self.regions.vectors],
            "bridges": sorted(list(k) for k in self.bridges),
        }
        if self.oracle is not None:
            # The rows as one plain list, from either storage (an
            # array or an mmap view); float distances survive JSON via
            # repr round-tripping (``Infinity`` where unreachable).
            # Absent for oracle-less indexes, so their JSON stays
            # byte-identical to pre-oracle builds.
            payload = self.oracle.to_payload()
            out["oracle"] = {k: (v.tolist() if isinstance(v, memoryview)
                                 else v)
                             for k, v in payload.items()}
        return out

    def save(self, path: Union[str, os.PathLike]) -> None:
        # One-shot dumps runs the C encoder (json.dump streams through
        # the pure-Python one): same text, 2-3x faster on table rows.
        with open(path, "w", encoding="ascii") as stream:
            stream.write(json.dumps(self.to_dict()))

    #: Every key :meth:`load` needs; validated up front so a truncated
    #: or hand-edited file fails with the missing names, not a KeyError.
    REQUIRED_KEYS = ("format", "num_vertices", "border_vertex_ids",
                     "region_of", "region_vectors", "bridges")

    @classmethod
    def load(cls, path: Union[str, os.PathLike],
             network: RoadNetwork) -> "RoadPartIndex":
        """Load a saved index and bind it to ``network``.

        Raises :class:`~repro.errors.IndexFormatError` (naming the path
        and what is wrong) for anything that is not a well-formed
        ``roadpart-index-v1`` file, and a plain :class:`ValueError` when
        the file is fine but was built for a different network.
        """
        payload = read_index_json(path)
        missing = [k for k in cls.REQUIRED_KEYS if k not in payload]
        if missing:
            raise IndexFormatError(
                f"{path}: missing required keys: {', '.join(missing)}")
        if payload["format"] != "roadpart-index-v1":
            raise IndexFormatError(
                f"{path}: not a RoadPart index file (format"
                f" {payload['format']!r}, expected 'roadpart-index-v1')")
        if payload["num_vertices"] != network.num_vertices:
            raise ValueError(
                f"index built for {payload['num_vertices']} vertices,"
                f" network has {network.num_vertices}")
        try:
            vectors = [tuple((label[0], label[1]) for label in vector)
                       for vector in payload["region_vectors"]]
            regions = RegionSet(payload["region_of"], vectors)
            bridges = frozenset((k[0], k[1]) for k in payload["bridges"])
            index = cls(network, list(payload["border_vertex_ids"]),
                        regions, bridges)
        except (IndexError, TypeError) as exc:
            raise IndexFormatError(
                f"{path}: malformed index payload ({exc})") from exc
        if "oracle" in payload:
            try:
                index._attach(oracle_from_payload(
                    payload["oracle"], network, bridges, source=str(path),
                    section="oracle.dist"))
            except IndexFormatError:
                raise
            except (AttributeError, KeyError, TypeError,
                    ValueError) as exc:
                raise IndexFormatError(
                    f"{path}: malformed oracle payload ({exc})") from exc
        return index

    def _attach(self, oracle: HubOracle) -> None:
        self.oracle = oracle
        self.stats.oracle_kind = oracle.kind
        self.stats.oracle_entries = oracle.entry_count()

    # -- binary (mmap) format ------------------------------------------

    def save_binary(self, path: Union[str, os.PathLike]) -> None:
        """Write the compact binary layout (see
        :mod:`repro.core.roadpart.binfmt` for the byte-level spec).

        An attached table appends the oracle sections (its rows written
        straight from their buffer, never copied); an oracle-less index
        is the same layout without them.
        """
        from repro.core.roadpart import binfmt
        binfmt.write_index_binary(
            path, self.network.num_vertices,
            list(self.border_vertex_ids),
            list(self.regions.region_of),
            list(self.regions.vectors),
            sorted(tuple(k) for k in self.bridges),
            oracle=(None if self.oracle is None
                    else self.oracle.to_payload()))

    @classmethod
    def load_binary(cls, path: Union[str, os.PathLike],
                    network: RoadNetwork) -> "RoadPartIndex":
        """mmap a binary index and bind it to ``network``.

        The vertex→region array is a zero-copy view over the mapping
        (shared pages across processes); answers are byte-identical to
        a legacy JSON load of the same index.  Raises
        :class:`~repro.errors.IndexFormatError` for structural defects
        and :class:`ValueError` for a network mismatch, exactly like
        :meth:`load`.
        """
        from repro.core.roadpart import binfmt
        payload = binfmt.read_index_binary(path)
        if payload.header.num_vertices != network.num_vertices:
            raise ValueError(
                f"index built for {payload.header.num_vertices}"
                f" vertices, network has {network.num_vertices}")
        regions = RegionSet(payload.region_of, payload.vectors)
        bridges = frozenset((u, v) for u, v in payload.bridges)
        index = cls(network, payload.border_vertex_ids, regions, bridges)
        if payload.oracle is not None:
            # The rows are a view over the same mapping -- queries read
            # the page cache directly, and only the O(endpoints) facts
            # are checked here.
            index._attach(oracle_from_payload(
                payload.oracle, network, bridges, source=str(path),
                section="ordist"))
        # The memoryviews above alias the mapping; keep it alive for
        # exactly as long as the index is.
        index._mmap_keepalive = payload.mapping
        return index

    @classmethod
    def load_auto(cls, path: Union[str, os.PathLike],
                  network: RoadNetwork) -> "RoadPartIndex":
        """Load either on-disk format, sniffed by magic bytes."""
        from repro.core.roadpart import binfmt
        if binfmt.sniff_binary(path):
            return cls.load_binary(path, network)
        return cls.load(path, network)


def build_index(network: RoadNetwork, border_count: int,
                contour_strategy: str = "walk",
                border_method: str = "equi-length",
                bridges: Optional[FrozenSet[EdgeKey]] = None,
                trace: Optional[TraceRecorder] = None,
                jobs: int = 1,
                engine: str = "flat",
                oracle: str = "none",
                ) -> RoadPartIndex:
    """Build a RoadPart index with ``ℓ = border_count`` border vertices.

    ``bridges`` can carry a precomputed bridge set (e.g. when several
    indexes are built over one network in a parameter sweep); by default
    the spatial self-join runs here.  ``contour_strategy`` is passed to
    :func:`repro.core.roadpart.contour.compute_contour`; a failed walk
    falls back to the hull contour and records the fact in the stats.

    ``jobs > 1`` runs the cut computation and the labelling rounds
    across that many fork workers (see
    :mod:`repro.core.roadpart.parallel`); the resulting index is
    byte-identical to a serial build.  Platforms without ``fork`` fall
    back to the serial loop silently.  ``engine`` selects the A* kernel
    for the cuts (``'flat'``/``'dict'``; identical cuts either way, see
    :mod:`repro.shortestpath.flat`), so any ``jobs``/``engine``
    combination produces a **byte-identical index**.

    ``oracle`` (``"none"``/``"auto"``, see
    :mod:`repro.shortestpath.oracle`) adds the endpoint tree table
    after labelling when ``auto`` finds bridges: one full Dijkstra per
    bridge endpoint, always with the flat kernel, spread over ``jobs``
    fork workers with the same byte-identity guarantee.  A network
    where a relaxation could absorb an edge
    (:func:`~repro.shortestpath.oracle.table_obstacle`) gets no table:
    ``stats.oracle_kind`` stays ``"none"`` and RoadPart answers with
    the dual heap.

    ``trace`` (optional, see :mod:`repro.obs.trace`) records a nested
    span tree of the build: ``bridges`` / ``contour`` / ``labeling`` with
    one ``round-<i>`` child per labelling round, itself broken into
    ``cuts`` / ``flood`` / ``pockets``; a table build adds an ``oracle``
    span with one ``trees`` child (the per-endpoint Dijkstras).
    """
    trace = resolve_trace(trace)
    stats = IndexBuildStats()
    started = time.perf_counter()

    step = time.perf_counter()
    with trace.span("bridges"):
        if bridges is None:
            bridges = find_bridges(network)
    stats.bridge_find_seconds = time.perf_counter() - step

    step = time.perf_counter()
    with trace.span("contour"):
        contour, strategy_used = compute_contour(network, contour_strategy)
    stats.contour_seconds = time.perf_counter() - step
    stats.contour_strategy_used = strategy_used
    stats.contour_length = len(contour)

    border_positions = select_borders(contour, border_count, border_method)

    builder = RegionBuilder(network.num_vertices)
    bridge_set = set(bridges)
    step = time.perf_counter()
    with trace.span("labeling"):
        # The skeleton copy the cuts run on is labelling work: the span
        # and the stopwatch both time it.
        cut_cache = CutCache(network, forbidden_edges=bridge_set,
                             engine=engine)
        if jobs > 1 and may_fork():
            rounds = run_parallel_labeling(network, contour,
                                           border_positions, bridge_set,
                                           cut_cache, jobs, trace)
        else:
            rounds = []
            for round_index in range(len(border_positions)):
                with trace.span(f"round-{round_index}"):
                    rounds.append(label_round(network, contour,
                                              border_positions,
                                              round_index, bridge_set,
                                              cut_cache, trace=trace))
        for labels, round_stats in rounds:
            builder.apply_round(labels)
            stats.raycast_calls += round_stats.raycast_calls
            stats.pocket_count += round_stats.pockets
            stats.widened_labels += round_stats.widened
    stats.labeling_seconds = time.perf_counter() - step
    stats.astar_expanded = cut_cache.astar_expanded
    stats.fallback_cuts = cut_cache.fallback_cuts

    regions = builder.finish()

    built_oracle = None
    if resolve_oracle_kind(oracle, bridges) != "none":
        step = time.perf_counter()
        with trace.span("oracle"):
            built_oracle = build_oracle(network, oracle, bridges,
                                        trace=trace, jobs=jobs)
        if built_oracle is not None:
            stats.oracle_seconds = time.perf_counter() - step
            stats.oracle_kind = built_oracle.kind
            stats.oracle_entries = built_oracle.entry_count()

    stats.build_seconds = time.perf_counter() - started
    border_ids = [contour.vertex_ids[pos] for pos in border_positions]
    return RoadPartIndex(network, border_ids, regions, frozenset(bridges),
                         contour=contour, stats=stats,
                         oracle=built_oracle)
