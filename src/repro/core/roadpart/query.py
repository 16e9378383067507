"""RoadPart online query processing (Sections IV-C and V-B/C).

Given a query, the processor:

1. looks up the regions ``R(Q)`` containing query vertices and computes
   the window ``W`` (tight by default, Equation (1) as ablation);
2. keeps every region whose label vector intersects ``W`` in all
   dimensions (Theorem 2), read off the region set's prefix bitsets
   (:meth:`~repro.core.roadpart.regions.RegionSet.regions_in_window`)
   -- their vertices form the planar part of the DPS (Theorem 3);
3. classifies every bridge against ``W`` at once, from the index's
   endpoint-label bitsets
   (:class:`~repro.core.roadpart.bridges.BridgeLabelBits`), prunes
   interior bridges (Theorem 6) and any bridge with an endpoint beyond
   BL-E's ``2r`` ball (Corollary 3 / Theorem 1) -- BL-E's search stops
   at ``r`` and the endpoint tree table's ``dist(x, vc)`` cells decide
   the ball, the search extending to ``2r`` only without a table or for
   a cell within rounding of ``2r``; the survivors are *examined*:
   Theorem 5 (both domains ``UD*`` and ``VD*`` non-empty) is read off
   the table's memoised verdicts
   (:meth:`~repro.shortestpath.oracle.HubOracle.screen`; without a
   table the dual-heap search computes the domains), and each *valid*
   bridge patches the shortest paths between its endpoints and the
   query vertices into the DPS.

Two deliberate deviations from the paper, both forced by the
skeleton-cut fix (see :class:`repro.core.roadpart.labeling.CutCache`).
The paper's proofs for Theorems 6 and 7 lean on cuts being shortest
paths in the *full* graph: a path excursion beyond a window boundary can
then be replaced by a segment of the boundary's cut at no extra length.
With skeleton cuts a bridge on the far side can undercut the cut
corridor, so the replacement argument only holds for bridge-free
excursions:

- *Exterior* bridges are not pruned unconditionally (the paper's
  Theorem 6 for them); only the purely metric Corollary 3 ball test --
  sound regardless of cut geometry -- may discard them.
- The Theorem 7 cut-pair dominance prune is **off by default**
  (``prune_theorem7=False``).  Its coverage argument assumes a path
  reaching a pruned bridge crosses the earlier boundary over an examined
  bridge or a replaceable cut segment; a shortcut bridge lying wholly
  outside that boundary breaks the latter, and Hypothesis found a
  network where the prune drops the one bridge the shortest path needs
  (see ``tests/core/roadpart/test_query.py::
  test_theorem7_can_drop_a_needed_bridge``).  Enable it to reproduce the
  paper's examined-bridge counts, not to answer queries.

The interior prune and Corollary 3 are sound as implemented; switching
them off (Ablation A) only adds examined bridges, never changes the
result.
"""

from __future__ import annotations

import time
from typing import List, Optional, Set, Tuple

from repro.core.ble import run_ble_radius
from repro.shortestpath.flat import release_search, resolve_engine
from repro.core.dps import DPSQuery, DPSResult
from repro.obs.stats import QueryStats, resolve_stats
from repro.core.roadpart.bridges import (
    CUT_PAIR_ORDERS,
    EdgeKey,
    classify_bridge,
    theorem7_survivors,
)
from repro.core.roadpart.index import RoadPartIndex
from repro.core.roadpart.window import loose_window, tight_window
from repro.shortestpath.bidirectional import bridge_domains
from repro.shortestpath.deadline import Deadline
from repro.shortestpath.oracle import ORACLE_POLICIES
from repro.shortestpath.paths import collect_path_vertices


class RoadPartQueryProcessor:
    """Answers DPS queries against a built :class:`RoadPartIndex`.

    Parameters
    ----------
    index:
        The offline index.
    window_mode:
        ``'tight'`` (Section IV-C procedure, default) or ``'loose'``
        (Equation (1); Ablation B).
    prune_corollary3, prune_theorem7:
        Toggle the two cut-bridge pruning rules (Ablation A).
        ``prune_theorem7`` defaults to **False**: the paper's Theorem 7
        is unsound under this implementation's skeleton cuts and can
        prune a bridge that query shortest paths need (module
        docstring).  Interior pruning (Theorem 6) is not toggleable: it
        is what makes the examined set finite in spirit -- but
        ``examine_all_bridges`` below bypasses it for the ablation's
        no-pruning row.
    cut_pair_order:
        ``'load'`` or ``'dimension'`` ordering of ``L`` for Theorem 7.
        Like ``window_mode``, ``engine`` and ``oracle``, any other
        value raises :class:`ValueError` here, whether or not a query
        ever reaches the code that reads it.
    examine_all_bridges:
        Skip every pruning rule and run the domain computation on all
        bridges (the ablation baseline; slow but maximally conservative).
    engine:
        Search kernel (``'flat'`` or ``'dict'``) for *every* sweep the
        query runs -- the Corollary 3 BL-E ball and each bridge's
        dual-heap domain computation; both engines give identical
        results and counters -- see :mod:`repro.shortestpath.flat`.
    oracle:
        Bridge-domain oracle policy.  ``'auto'`` (default) answers
        every examined bridge from the endpoint tree table attached to
        the index when there is one: Theorem 5 from the verdicts it
        memoises off its ``dist`` rows (:meth:`HubOracle.screen`), the
        path patch of a valid bridge from the trees it derives from
        those rows (:meth:`HubOracle.preds`), no search at all -- and decides Corollary 3 from its ``dist(x,
        vc)`` cells, so the BL-E search stops at ``r``.  ``'none'``
        never consults it: the BL-E search extends to ``2r`` and the
        dual-heap search runs per bridge (the reference); any other
        value raises :class:`ValueError`.  The table holds the very trees the
        dual heap grows (:mod:`repro.shortestpath.oracle`), so the DPS
        is byte-identical either way.  Table reads touch no search
        counters; they are accounted as ``oracle_hits`` /
        ``oracle_fallbacks`` in the result stats (see
        ``docs/observability.md``).
    """

    def __init__(self, index: RoadPartIndex, window_mode: str = "tight",
                 prune_corollary3: bool = True,
                 prune_theorem7: bool = False,
                 cut_pair_order: str = "load",
                 examine_all_bridges: bool = False,
                 engine: str = "flat",
                 oracle: str = "auto") -> None:
        if window_mode not in ("tight", "loose"):
            raise ValueError(f"unknown window mode {window_mode!r}")
        if cut_pair_order not in CUT_PAIR_ORDERS:
            raise ValueError(f"unknown cut-pair order {cut_pair_order!r}")
        self._index = index
        self._window_mode = window_mode
        self._prune_cor3 = prune_corollary3
        self._prune_thm7 = prune_theorem7
        self._cut_pair_order = cut_pair_order
        self._examine_all = examine_all_bridges
        self._engine = resolve_engine(engine)
        if oracle not in ORACLE_POLICIES:
            raise ValueError(f"unknown oracle policy {oracle!r}")
        self._oracle = index.oracle if oracle == "auto" else None

    # ------------------------------------------------------------------

    def query(self, query: DPSQuery,
              stats: Optional[QueryStats] = None,
              deadline: Optional[Deadline] = None) -> DPSResult:
        """Answer a DPS query; returns the DPS with the paper's measures
        (``b`` examined bridges, ``b_v`` valid bridges) in the stats.

        ``stats`` (optional) collects the phase breakdown (``window``,
        ``region-prune``, ``bridge-classify``, ``cor3-ble``, ``oracle``,
        ``bridge-domains``, ``path-patch``) and engine counters -- see
        :mod:`repro.obs`.  ``deadline`` (optional) bounds the SSSP work
        (the Corollary 3 ball and every bridge-domain sweep drain one
        shared budget); on expiry the in-flight search's arena is
        recycled and :class:`~repro.errors.DeadlineExceeded` propagates.
        """
        network = self._index.network
        query.validate_against(network)
        stats = resolve_stats(stats)
        started = time.perf_counter()
        regions = self._index.regions
        q_vertices = sorted(query.combined)

        # --- window ----------------------------------------------------
        with stats.phase("window"):
            window, query_regions = self._window(q_vertices)

        # --- region pruning (Theorem 2) ---------------------------------
        collected: Set[int] = set()
        with stats.phase("region-prune"):
            kept = regions.regions_in_window(window)
            members = regions.members
            for rid in kept:
                collected.update(members[rid])

        # --- bridge handling (Section V) --------------------------------
        examined, valid = self._handle_bridges(
            query, window, collected, stats, deadline=deadline)

        elapsed = time.perf_counter() - started
        result_stats = {"b": examined, "bv": valid,
                        "regions_kept": len(kept),
                        "query_regions": len(query_regions)}
        if self._oracle is not None:
            # Emitted only when a table is attached, so oracle-less
            # runs keep exactly today's stats payload.  The table
            # answers every examined bridge.
            result_stats["oracle_hits"] = examined
            result_stats["oracle_fallbacks"] = 0
        result = DPSResult("RoadPart", query, frozenset(collected),
                           seconds=elapsed, stats=result_stats)
        stats.finish(result, network)
        return result

    # ------------------------------------------------------------------

    def _window(self, q_vertices: List[int]):
        """Compute the window ``W`` and the query regions ``R(Q)``."""
        regions = self._index.regions
        query_regions = regions.regions_of_vertices(q_vertices)
        query_vectors = [regions.vectors[rid] for rid in query_regions]
        if self._window_mode == "tight":
            window = tight_window(query_vectors)
        else:
            window = loose_window(query_vectors)
        return window, query_regions

    def examined_bridges(self, query: DPSQuery,
                         stats: Optional[QueryStats] = None,
                         deadline: Optional[Deadline] = None,
                         ) -> List[EdgeKey]:
        """Return the bridges this processor would *examine* for
        ``query`` -- classification and pruning only, no domain
        computation.  Used by ``bench bridges`` to time the dual-heap
        kernel over exactly the production bridge workload.
        """
        network = self._index.network
        query.validate_against(network)
        stats = resolve_stats(stats)
        with stats.phase("window"):
            window, _ = self._window(sorted(query.combined))
        return self._select_bridges(query, window, stats,
                                    deadline=deadline)

    def _select_bridges(self, query: DPSQuery, window,
                        stats: QueryStats,
                        deadline: Optional[Deadline] = None,
                        ) -> List[EdgeKey]:
        """Classify and prune bridges; returns the examined list."""
        network = self._index.network
        bridge_bits = self._index.bridge_bits
        if not bridge_bits.bridges:
            return []
        if self._examine_all:
            return list(bridge_bits.bridges)

        with stats.phase("bridge-classify"):
            # Exterior bridges are not pruned outright (paper's Theorem
            # 6): with skeleton cuts only the metric Corollary 3 test
            # below may discard them (module docstring).  Interior
            # bridges are pruned (Theorem 6, still sound).
            cut, exterior = bridge_bits.classify(window)
        if self._prune_cor3 and (cut or exterior):
            with stats.phase("cor3-ble"):
                # Corollary 3's 2r ball reuses BL-E's search up to r;
                # the table's cells decide the rest, the search
                # extending to 2r only without a table or for a cell
                # within rounding of 2r.  Its heap/relax work lands in
                # the same counter set but keeps its own phase so the
                # breakdown stays honest.
                ble = run_ble_radius(network, query, counters=stats.counters,
                                     engine=self._engine, deadline=deadline)
                table = self._oracle

                def in_ball(keys: List[EdgeKey]) -> List[EdgeKey]:
                    return [key for key in keys
                            if ble.within_2r(key[0], table)
                            and ble.within_2r(key[1], table)]
                try:
                    cut, exterior = in_ball(cut), in_ball(exterior)
                finally:
                    release_search(ble.search)  # probes done; recycle
        if self._prune_thm7 and cut:
            with stats.phase("bridge-classify"):
                vector = self._index.regions.vector_of_vertex
                cut = theorem7_survivors(
                    {key: classify_bridge(vector(key[0]), vector(key[1]),
                                          window)
                     for key in cut},
                    len(window), self._cut_pair_order)
        return sorted(cut + exterior)

    def _handle_bridges(self, query: DPSQuery, window,
                        collected: Set[int],
                        stats: QueryStats,
                        deadline: Optional[Deadline] = None,
                        ) -> Tuple[int, int]:
        """Prune, examine and patch bridges; returns ``(b, b_v)``."""
        network = self._index.network
        to_examine = self._select_bridges(query, window, stats,
                                          deadline=deadline)
        q_vertices = sorted(query.combined)
        valid = 0
        table = self._oracle
        for u, v in to_examine:
            if table is not None:
                with stats.phase("oracle"):
                    screened = table.screen(u, v, network.edge_weight(u, v),
                                            q_vertices)
                if screened is None:
                    continue  # Theorem 5: no query path uses it
                valid += 1
                with stats.phase("path-patch"):
                    members = sorted(screened[0] | screened[1])
                    table.collect_paths(u, members, collected)
                    table.collect_paths(v, members, collected)
                continue
            with stats.phase("bridge-domains"):
                domains = bridge_domains(network, u, v, q_vertices,
                                         counters=stats.counters,
                                         engine=self._engine,
                                         deadline=deadline)
            if not domains.ud_star or not domains.vd_star:
                # Theorem 5: this bridge carries no query path.
                domains.release()
                continue
            valid += 1
            with stats.phase("path-patch"):
                members = sorted(domains.ud_star | domains.vd_star)
                collect_path_vertices(domains.search_u.pred, u, members,
                                      collected)
                collect_path_vertices(domains.search_v.pred, v, members,
                                      collected)
            # Pred views consumed; recycle both arenas into the pool.
            domains.release()
        return len(to_examine), valid


def roadpart_dps(index: RoadPartIndex, query: DPSQuery,
                 stats: Optional[QueryStats] = None,
                 deadline: Optional[Deadline] = None,
                 **processor_options) -> DPSResult:
    """One-shot convenience: build a processor and answer one query."""
    processor = RoadPartQueryProcessor(index, **processor_options)
    return processor.query(query, stats=stats, deadline=deadline)
