"""The RoadPart index: offline construction and serialisation.

Construction (Section IV-B + V-A), ``O(ℓ²|V|log|V|)`` total:

1. find the bridges (spatial self-join over ``Rtree(E)``);
2. compute a contour of the network;
3. select ``ℓ`` border vertices equi-length on the contour;
4. run ``ℓ`` labelling rounds (one per border vertex, each computing its
   cuts by A* and flooding zones), splitting regions after every round;
5. keep, per vertex, only its region id and, per region, its full label
   vector.

The index is independent of any query; it is saved once and reloaded
against the same network (the server-side artefact of the paper's
deployment story).  It has one on-disk layout,
``roadpart-index-bin-v4`` (:meth:`save_binary` / :meth:`load_binary`,
spec and validation in :mod:`repro.core.roadpart.binfmt`): mmap-loaded,
so the ``O(|V|)`` ``region_of`` array and the table rows are zero-copy
views over shared pages, and the serving daemon and fork workers all
read the same physical memory.  A loaded index answers every query
exactly as the built one does (pinned by
``tests/core/roadpart/test_binary_index.py``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Union

from repro.core.roadpart import binfmt
from repro.core.roadpart.border import select_borders
from repro.core.roadpart.bridges import BridgeLabelBits, EdgeKey, bridge_join
from repro.core.roadpart.contour import Contour, compute_contour
from repro.core.roadpart.labeling import CutCache
from repro.core.roadpart.parallel import run_labeling
from repro.core.roadpart.regions import RegionBuilder, RegionSet
from repro.errors import IndexFormatError
from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder, resolve_trace
from repro.shortestpath.oracle import (
    HubOracle,
    build_oracle,
    resolve_oracle_kind,
)


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
    #: the most processes any phase ran on (1: the whole build was
    #: serial; see :func:`build_index`).
    workers: int = 1


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

    def _attach(self, oracle: HubOracle) -> None:
        self.oracle = oracle
        self.stats.oracle_kind = oracle.kind
        self.stats.oracle_entries = oracle.entry_count()

    def save_binary(self, path: Union[str, os.PathLike]) -> None:
        """Write the compact binary layout (see
        :mod:`repro.core.roadpart.binfmt` for the byte-level spec).

        An attached table appends the oracle sections (its rows written
        straight from their buffer, never copied); an oracle-less index
        is the same layout without them.
        """
        binfmt.write_index_binary(
            path, self.network.num_vertices, self.border_vertex_ids,
            self.regions.region_of, self.regions.vectors, self.bridges,
            oracle=self.oracle)

    @classmethod
    def load_binary(cls, path: Union[str, os.PathLike],
                    network: RoadNetwork) -> "RoadPartIndex":
        """mmap a binary index and bind it to ``network``.

        The vertex→region array is a zero-copy view over the mapping
        (shared pages across processes); answers are byte-identical to
        those of the index that was saved.  Raises
        :class:`~repro.errors.IndexFormatError` naming the path for a
        file that is not a well-formed ``roadpart-index-bin-v4`` index
        (a JSON index from an older build included) or that was built
        for a network with another vertex count.
        """
        payload = binfmt.read_index_binary(path)
        if payload.header.num_vertices != network.num_vertices:
            raise IndexFormatError(
                f"{path}: index built for {payload.header.num_vertices}"
                f" vertices, network has {network.num_vertices}")
        regions = RegionSet(payload.region_of, payload.vectors)
        index = cls(network, payload.border_vertex_ids, regions,
                    frozenset(payload.bridges))
        if payload.hubs is not None:
            # The rows are a view over the same mapping -- queries read
            # the page cache directly; binfmt checked the O(endpoints)
            # facts.
            index._attach(HubOracle(payload.hubs, payload.dist, network,
                                    source=str(path), section="ordist"))
        # The memoryviews above alias the mapping; keep it alive for
        # exactly as long as the index is.
        index._mmap_keepalive = payload.mapping
        return index


def build_index(network: RoadNetwork, border_count: int,
                contour_strategy: str = "walk",
                border_method: str = "equi-length",
                bridges: Optional[FrozenSet[EdgeKey]] = None,
                trace: Optional[TraceRecorder] = None,
                engine: str = "flat",
                oracle: str = "none",
                ) -> RoadPartIndex:
    """Build a RoadPart index with ``ℓ = border_count`` border vertices.

    ``bridges`` can carry a precomputed bridge set (e.g. when several
    indexes are built over one network in a parameter sweep); by default
    the spatial self-join runs here.  ``contour_strategy`` is passed to
    :func:`repro.core.roadpart.contour.compute_contour`; a failed walk
    falls back to the hull contour and records the fact in the stats.
    ``engine`` selects the A* kernel for the cuts (``'flat'``/``'dict'``;
    identical cuts either way, see :mod:`repro.shortestpath.flat`).

    ``oracle`` (``"none"``/``"auto"``, see
    :mod:`repro.shortestpath.oracle`) adds the endpoint tree table
    after labelling when ``auto`` finds bridges: one full Dijkstra per
    bridge endpoint, always with the flat kernel.  A network where a
    relaxation could absorb an edge
    (:func:`~repro.shortestpath.oracle.table_obstacle`) gets no table:
    ``stats.oracle_kind`` stays ``"none"`` and RoadPart answers with
    the dual heap.

    The build uses every usable CPU by itself.  The bridge join, the
    cut sweep with the labelling rounds, and the table rows each fork
    over the usable CPUs once their estimated work reaches the phase's
    threshold (:data:`~repro.core.roadpart.bridges.FORK_EDGES`,
    :data:`~repro.core.roadpart.parallel.FORK_LABEL_WORK`,
    :data:`~repro.shortestpath.oracle.FORK_ROW_SETTLES`) and
    :func:`~repro.forkpool.may_fork` allows it; otherwise each runs its
    serial loop.  ``stats.workers`` is the most processes any phase
    ran on; ``taskset -c 0`` restricts a build to one.  Any worker
    count and either engine write a **byte-identical index** with the
    same stats counts, and no worker outlives the call.

    ``trace`` (optional, see :mod:`repro.obs.trace`) records a nested
    span tree of the build: ``bridges`` / ``contour`` / ``labeling`` with
    one ``round-<i>`` child per labelling round, itself broken into
    ``cuts`` / ``flood`` / ``pockets`` (forked rounds add one
    ``cuts`` span before them, the up-front cut sweep); a table build
    adds an ``oracle`` span with one ``trees`` child (the per-endpoint
    Dijkstras).
    """
    trace = resolve_trace(trace)
    stats = IndexBuildStats()
    started = time.perf_counter()

    step = time.perf_counter()
    with trace.span("bridges"):
        if bridges is None:
            bridges, stats.workers = bridge_join(network)
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
        rounds, workers = run_labeling(network, contour, border_positions,
                                       bridge_set, cut_cache, trace)
        stats.workers = max(stats.workers, workers)
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
                                        trace=trace)
        if built_oracle is not None:
            stats.oracle_seconds = time.perf_counter() - step
            stats.oracle_kind = built_oracle.kind
            stats.oracle_entries = built_oracle.entry_count()
            stats.workers = max(stats.workers, built_oracle.workers)

    stats.build_seconds = time.perf_counter() - started
    border_ids = [contour.vertex_ids[pos] for pos in border_positions]
    return RoadPartIndex(network, border_ids, regions, frozenset(bridges),
                         contour=contour, stats=stats,
                         oracle=built_oracle)
