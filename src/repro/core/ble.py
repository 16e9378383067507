"""BL-E: the efficiency-centric baseline (Section III-B of the paper).

One round of Dijkstra total: find the centre vertex ``vc`` (the vertex
nearest the centre of the query set's MBR, via an R-tree NN lookup), run
SSSP from ``vc`` until every query vertex is settled, call the largest
such distance ``r``, then *continue the same search* out to radius ``2r``
and keep everything settled.

Correctness is Theorem 1: any vertex with ``dist(vc, v) > 2r`` cannot lie
on a query shortest path, because ``dist(s, t) ≤ 2r`` for all query pairs
(Lemma 1) while a path through ``v`` would be strictly longer.  The cost
is quality: the disk of radius ``2r`` is at least 4x the area the
smallest DPS needs, which is exactly what Table II and Figure 11 measure.

RoadPart's Corollary 3 shares the centre and ``r`` stage
(:func:`run_ble_radius`) but reads most ``2r`` decisions off its
endpoint tree table instead of extending the search
(:meth:`BLEOutcome.within_2r`).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.dps import DPSQuery, DPSResult
from repro.graph.network import RoadNetwork
from repro.obs.counters import SearchCounters
from repro.obs.stats import QueryStats, resolve_stats
from repro.shortestpath.deadline import Deadline
from repro.shortestpath.flat import make_search, release_search
from repro.spatial.rect import Rect


def rounding_band(num_vertices: int) -> float:
    """Relative half-width ``ε`` of the band around ``2r`` inside which
    an endpoint tree table cell cannot stand in for the ``2r`` search.

    Corollary 3 keeps a bridge endpoint ``x`` iff the search from ``vc``
    settles it on the way out to ``2r``, i.e. iff that search's float
    label ``d_f = dist(vc, x) ≤ 2r``.  The table holds ``d_t``, the
    float label of ``vc`` in ``x``'s own tree, which may differ from
    ``d_f`` in the last bits.  With ``u = 2⁻⁵³``, ``n = |V|`` (``nu ≤
    1/16``), ``D`` the exact ``dist(vc, x) = dist(x, vc)`` (the network
    is undirected) and ``γ = nu/(1 - nu)``:

    - A Dijkstra label is ``fl(d(p) + w(p, x))`` of its predecessor's
      label, i.e. the left-to-right float sum of the weights along the
      predecessor chain, a simple path of fewer than ``n`` edges; for
      non-negative terms that sum is at least ``(1 - γ)·L ≥ (1 - γ)·D``,
      ``L`` the chain's exact length.
    - Along a shortest path ``vc = x₀, …, x_k = x``, settling ``x_{i-1}``
      leaves ``d(x_i) ≤ fl(d(x_{i-1}) + w_i)`` (keys pop in
      non-decreasing order), so by induction and the monotonicity of
      rounding ``d ≤`` the left-to-right float sum along that path
      ``≤ (1 + γ)·D``.

    Both ``d_f`` and ``d_t`` thus lie in ``[(1 - γ)D, (1 + γ)D]``.  With
    ``ε = 4nu``, a cell ``d_t ≤ fl(2r(1 - ε)) ≤ 2r(1 - ε)(1 + u)`` gives
    ``d_f ≤ 2r·(1 - ε)(1 + u)(1 + γ)/(1 - γ) ≤ 2r`` (keep), and a cell
    ``d_t > fl(2r(1 + ε)) ≥ 2r(1 + ε)(1 - u)`` gives ``d_f >
    2r·(1 + ε)(1 - u)(1 - γ)/(1 + γ) ≥ 2r`` (drop).  ``1 ± ε`` and
    ``2r`` are exact, so each bound is one rounding.  Where ``2r`` is
    subnormal the product's relative bound lapses, but every label at
    most ``2r`` is then an exact sum, so ``d_t ≤ 2r`` iff ``d_f ≤ 2r``,
    and the rounded bounds still bracket ``2r`` by monotonicity.  A cell
    in between decides nothing: the search extends to ``2r`` instead.
    """
    return 4.0 * num_vertices * 2.0 ** -53


class BLEOutcome:
    """The centre ``vc``, the radius ``r`` and the resumable search of a
    BL-E run; RoadPart's Corollary 3 reuses them to prune cut bridges
    whose endpoints lie beyond ``2r`` from ``vc``."""

    __slots__ = ("center_vertex", "radius", "search", "_extended",
                 "_keep_at_most", "_drop_above")

    def __init__(self, center_vertex: int, radius: float, search,
                 num_vertices: int) -> None:
        # ``search`` is either engine's resumable search (same API).
        self.center_vertex = center_vertex
        self.radius = radius
        self.search = search
        self._extended = False
        band = rounding_band(num_vertices)
        self._keep_at_most = 2.0 * radius * (1.0 - band)
        self._drop_above = 2.0 * radius * (1.0 + band)

    def extend(self) -> None:
        """Continue the search out to ``2r`` (Theorem 1's ball); every
        call after the first is a no-op."""
        if not self._extended:
            self.search.run_until_beyond(2.0 * self.radius)
            self._extended = True

    def within_2r(self, v: int, table=None) -> bool:
        """Return True when ``dist(vc, v) ≤ 2r`` (Theorem 1's keep side),
        exactly as the search extended to ``2r`` decides it.

        ``table`` (an endpoint tree table holding ``v``'s row, optional)
        decides from the cell ``dist(v, vc)`` when it lies outside the
        rounding band around ``2r`` (:func:`rounding_band`); otherwise,
        or without a table, the search extends to ``2r`` (once) and
        answers.  A NaN or negative cell raises
        :class:`~repro.errors.IndexFormatError`.
        """
        if table is not None:
            cell = table.distance(v, self.center_vertex)
            if cell <= self._keep_at_most:
                return True
            if cell > self._drop_above:
                return False
        self.extend()
        return v in self.search.dist


def run_ble_radius(network: RoadNetwork, query: DPSQuery,
                   counters: Optional[SearchCounters] = None,
                   stats: Optional[QueryStats] = None,
                   engine: str = "flat",
                   deadline: Optional[Deadline] = None) -> BLEOutcome:
    """BL-E's first stage: find ``vc`` and settle the query from it.

    The search stops once every query vertex settles, which fixes ``r``;
    :meth:`BLEOutcome.extend` continues it to ``2r``.  RoadPart's
    Corollary 3 pruning stops here and extends only when a bridge
    endpoint needs it (:meth:`BLEOutcome.within_2r`).  ``counters`` and
    ``stats`` are as for :func:`run_ble_search` (``center`` and
    ``settle-query`` phases); on any failure, a blown ``deadline``
    included, the scratch arena is recycled before the error propagates.
    """
    stats = resolve_stats(stats)
    if counters is None:
        counters = stats.counters
    query.validate_against(network)
    with stats.phase("center"):
        q = query.combined
        mbr = Rect.from_points(network.coord(v) for v in q)
        center_vertex = network.vertex_rtree().nearest_one(mbr.center())
    search = make_search(network, int(center_vertex), counters=counters,
                         engine=engine, deadline=deadline)
    try:
        with stats.phase("settle-query"):
            settled_all = search.run_until_settled(q)
        if not settled_all:
            unreached = [v for v in q if v not in search.dist]
            raise ValueError(
                f"network is not connected: {len(unreached)} query vertices"
                f" unreachable from the centre vertex {center_vertex}")
        radius = max(search.dist[v] for v in q)
    except BaseException:
        release_search(search)  # failed search holds no useful views
        raise
    return BLEOutcome(int(center_vertex), radius, search,
                      network.num_vertices)


def run_ble_search(network: RoadNetwork, query: DPSQuery,
                   counters: Optional[SearchCounters] = None,
                   stats: Optional[QueryStats] = None,
                   engine: str = "flat",
                   deadline: Optional[Deadline] = None) -> BLEOutcome:
    """Run the BL-E search machinery and return its raw outcome.

    :func:`run_ble_radius`, then the ``2r`` continuation.  ``counters``
    instruments the single resumable Dijkstra (one counter set across
    both stages -- the ``r`` phase and the ``2r`` continuation
    accumulate, never reset); ``stats`` adds the ``center`` /
    ``settle-query`` / ``extend-2r`` phase breakdown.  ``deadline``
    (optional) bounds the search's wall clock; on expiry the scratch
    arena is recycled and :class:`~repro.errors.DeadlineExceeded`
    propagates.
    """
    stats = resolve_stats(stats)
    outcome = run_ble_radius(network, query, counters=counters,
                             stats=stats, engine=engine, deadline=deadline)
    try:
        with stats.phase("extend-2r"):
            outcome.extend()
    except BaseException:
        release_search(outcome.search)
        raise
    return outcome


def bl_efficiency(network: RoadNetwork, query: DPSQuery,
                  stats: Optional[QueryStats] = None,
                  engine: str = "flat",
                  deadline: Optional[Deadline] = None) -> DPSResult:
    """Return the radius-``2r`` DPS of Section III-B.

    Every vertex settled by the staged search has ``dist(vc, ·) ≤ 2r``
    (phase one settles at most ``r``, phase two stops at ``2r``), so the
    settled set *is* the DPS.  ``stats`` (optional) collects the phase
    timings and engine counters -- see :mod:`repro.obs`; ``deadline``
    (optional) bounds the query's wall clock (see
    :mod:`repro.shortestpath.deadline`).
    """
    stats = resolve_stats(stats)
    started = time.perf_counter()
    outcome = run_ble_search(network, query, stats=stats, engine=engine,
                             deadline=deadline)
    vertices = frozenset(outcome.search.dist)
    release_search(outcome.search)  # the frozenset is a copy; recycle
    elapsed = time.perf_counter() - started
    result = DPSResult("BL-E", query, vertices, seconds=elapsed,
                       stats={"center_vertex": outcome.center_vertex,
                              "radius": outcome.radius,
                              "sssp_rounds": 1})
    stats.finish(result, network)
    return result
