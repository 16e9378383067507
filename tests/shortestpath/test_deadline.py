"""Cooperative per-query deadlines (:mod:`repro.shortestpath.deadline`).

Three contracts, each pinned for both engines:

- an already-expired deadline raises :class:`DeadlineExceeded` at the
  start of any bulk run, so even tiny searches notice a blown budget;
- a generous deadline is invisible: answers, settle orders and counters
  are identical to running with no deadline at all;
- an abort mid-search leaves the flat engine's pooled arena reusable --
  the all-inf invariant is restored on release, so the next search from
  the pool still answers correctly.

The mid-loop aborts are driven by a fake clock patched over the flat
kernel's ``monotonic``: the entry check reads the real clock and passes,
the first quantized check reads a time past every deadline.
"""

from __future__ import annotations

import math

import pytest

from repro.core.ble import bl_efficiency
from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.core.hull import convex_hull_dps
from repro.core.ble import run_ble_radius
from repro.core.roadpart.index import build_index
from repro.core.roadpart.query import roadpart_dps
from repro.datasets.queries import window_query
from repro.errors import DeadlineExceeded
from repro.obs.counters import SearchCounters
from repro.obs.stats import QueryStats
from repro.shortestpath import flat
from repro.shortestpath.bidirectional import (
    bidirectional_ppsp,
    bridge_domains,
)
from repro.shortestpath.deadline import DEADLINE_CHECK_INTERVAL, Deadline
from repro.shortestpath.flat import (
    FlatDijkstraSearch,
    make_search,
    release_search,
)

ENGINES = ("flat", "dict")


def expired() -> Deadline:
    """A deadline that is already blown when the search starts."""
    return Deadline.after(0.0)


def generous() -> Deadline:
    """A deadline no test workload can blow."""
    return Deadline.after(60.0)


class TestDeadlineObject:

    def test_after_sets_budget(self):
        dl = Deadline.after(1.5)
        assert dl.budget == 1.5
        assert dl.remaining() > 1.0
        assert not dl.expired()

    def test_expired_deadline_checks(self):
        dl = expired()
        assert dl.expired()
        assert dl.remaining() <= 0.0
        with pytest.raises(DeadlineExceeded, match="deadline"):
            dl.check()

    def test_describe_mentions_budget_ms(self):
        assert "250ms" in Deadline.after(0.25).describe()


class TestEngineDeadlines:

    @pytest.mark.parametrize("engine", ENGINES)
    def test_expired_raises_on_entry(self, medium_network, engine):
        search = make_search(medium_network, 0, engine=engine,
                             deadline=expired())
        with pytest.raises(DeadlineExceeded):
            search.run_until_settled([medium_network.num_vertices - 1])
        release_search(search)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_expired_raises_on_exhaustion_run(self, medium_network,
                                              engine):
        search = make_search(medium_network, 0, engine=engine,
                             deadline=expired())
        with pytest.raises(DeadlineExceeded):
            search.run_to_exhaustion()
        release_search(search)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_generous_deadline_is_invisible(self, medium_network,
                                            engine):
        plain_counters = SearchCounters()
        plain = make_search(medium_network, 0, counters=plain_counters,
                            engine=engine)
        plain.run_to_exhaustion()
        plain_dist = dict(plain.dist)
        plain_order = list(plain.settled_order)
        release_search(plain)
        bounded_counters = SearchCounters()
        bounded = make_search(medium_network, 0,
                              counters=bounded_counters, engine=engine,
                              deadline=generous())
        bounded.run_to_exhaustion()
        assert dict(bounded.dist) == plain_dist
        assert list(bounded.settled_order) == plain_order
        assert bounded_counters.as_dict() == plain_counters.as_dict()
        release_search(bounded)

    def test_arena_reusable_after_abort(self, medium_network):
        # The abort path must restore the pooled arena's all-inf
        # invariant, else the *next* search from the pool answers from
        # stale labels.
        search = make_search(medium_network, 0, deadline=expired())
        with pytest.raises(DeadlineExceeded):
            search.run_to_exhaustion()
        release_search(search)
        reference = make_search(medium_network, 3, engine="dict")
        reference.run_to_exhaustion()
        fresh = make_search(medium_network, 3)
        fresh.run_to_exhaustion()
        assert dict(fresh.dist) == dict(reference.dist)
        release_search(fresh)

    def test_abort_before_work_counts_nothing(self, medium_network):
        # The entry check fires before the first settle, so a blown
        # budget that never did work must not inflate the counters.
        counters = SearchCounters()
        search = make_search(medium_network, 0, counters=counters,
                             deadline=expired())
        with pytest.raises(DeadlineExceeded):
            search.run_to_exhaustion()
        release_search(search)
        assert counters.vertices_settled == 0


class TestDualHeapDeadlines:

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bridge_domains_expired(self, bridge_network, engine):
        from tests.conftest import BRIDGE_U, BRIDGE_V
        with pytest.raises(DeadlineExceeded):
            bridge_domains(bridge_network, BRIDGE_U, BRIDGE_V,
                           [0, 24], engine=engine, deadline=expired())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ppsp_expired(self, medium_network, engine):
        with pytest.raises(DeadlineExceeded):
            bidirectional_ppsp(medium_network, 0,
                               medium_network.num_vertices - 1,
                               engine=engine, deadline=expired())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ppsp_generous_matches_plain(self, medium_network, engine):
        target = medium_network.num_vertices - 1
        plain = bidirectional_ppsp(medium_network, 0, target,
                                   engine=engine)
        bounded = bidirectional_ppsp(medium_network, 0, target,
                                     engine=engine, deadline=generous())
        assert bounded == plain


class TestEntryPointDeadlines:
    """All four DPS algorithms propagate a blown budget as the typed
    error (the serve layer's fallback cascade keys on it)."""

    def test_ble(self, medium_network, medium_query):
        with pytest.raises(DeadlineExceeded):
            bl_efficiency(medium_network, medium_query,
                          deadline=expired())

    def test_blq(self, medium_network, medium_query):
        with pytest.raises(DeadlineExceeded):
            bl_quality(medium_network, medium_query, deadline=expired())

    def test_hull(self, medium_network, medium_query):
        with pytest.raises(DeadlineExceeded):
            convex_hull_dps(medium_network, medium_query,
                            deadline=expired())

    def test_roadpart(self, medium_index, medium_query):
        # medium_query examines bridges (b > 0), so SSSP work -- and
        # with it the deadline check -- is guaranteed to run.
        with pytest.raises(DeadlineExceeded):
            roadpart_dps(medium_index, medium_query, deadline=expired())

    @pytest.mark.parametrize("runner", ["ble", "blq", "hull",
                                        "roadpart"])
    def test_generous_deadline_preserves_answers(self, medium_network,
                                                 medium_index,
                                                 medium_query, runner):
        if runner == "roadpart":
            plain = roadpart_dps(medium_index, medium_query)
            bounded = roadpart_dps(medium_index, medium_query,
                                   deadline=generous())
        elif runner == "blq":
            plain = bl_quality(medium_network, medium_query)
            bounded = bl_quality(medium_network, medium_query,
                                 deadline=generous())
        elif runner == "ble":
            plain = bl_efficiency(medium_network, medium_query)
            bounded = bl_efficiency(medium_network, medium_query,
                                    deadline=generous())
        else:
            plain = convex_hull_dps(medium_network, medium_query)
            bounded = convex_hull_dps(medium_network, medium_query,
                                      deadline=generous())
        assert bounded.vertices == plain.vertices
        assert bounded.stats == plain.stats


@pytest.fixture()
def clock_past_deadline(monkeypatch):
    """The flat kernel's clock reads past every deadline, so a bulk run
    aborts at its first quantized check, after exactly
    ``DEADLINE_CHECK_INTERVAL`` settles."""
    monkeypatch.setattr(flat, "monotonic", lambda: math.inf)


class TestMidLoopAbort:

    @pytest.mark.parametrize("run", ["until_settled", "until_beyond",
                                     "to_exhaustion"])
    def test_abort_flushes_counters_and_restores_arena(
            self, medium_network, clock_past_deadline, run):
        far = medium_network.num_vertices - 1
        counters = SearchCounters()
        search = FlatDijkstraSearch(medium_network, 0, counters=counters,
                                    deadline=generous())
        arena = search._arena
        with pytest.raises(DeadlineExceeded):
            if run == "until_settled":
                search.run_until_settled([far])
            elif run == "until_beyond":
                search.run_until_beyond(1e9)
            else:
                search.run_to_exhaustion()
        # The abort lands right after the interval's last settle, before
        # that vertex relaxes its arcs; every tally is flushed.
        order = search.settled_order
        indptr = medium_network.csr().indptr_list
        assert len(order) == DEADLINE_CHECK_INTERVAL
        assert counters.vertices_settled == DEADLINE_CHECK_INTERVAL
        assert search.expanded == DEADLINE_CHECK_INTERVAL
        assert counters.heap_pops == (counters.vertices_settled
                                      + counters.stale_skips)
        assert counters.heap_pushes == (counters.heap_pops
                                        + len(search._frontier))
        assert counters.edges_relaxed == sum(
            indptr[u + 1] - indptr[u] for u in order[:-1])
        search.release()
        assert all(d == math.inf for d in arena.dist)

    def test_roadpart_abort_in_corollary3_r_stage(self, medium_network,
                                                  monkeypatch):
        index = build_index(medium_network, border_count=8,
                            oracle="auto")
        query = DPSQuery.q_query(window_query(medium_network, 0.6,
                                              seed=21))
        before = roadpart_dps(index, query)
        assert before.stats["b"] > 0  # Corollary 3 runs
        r_stage = SearchCounters()
        release_search(run_ble_radius(medium_network, query,
                                      counters=r_stage).search)
        # The first quantized check falls inside the r stage.
        assert r_stage.vertices_settled > DEADLINE_CHECK_INTERVAL
        monkeypatch.setattr(flat, "monotonic", lambda: math.inf)
        stats = QueryStats()
        with pytest.raises(DeadlineExceeded):
            roadpart_dps(index, query, stats=stats, deadline=generous())
        assert stats.counters.vertices_settled == DEADLINE_CHECK_INTERVAL
        monkeypatch.undo()
        after = roadpart_dps(index, query)
        assert after.vertices == before.vertices
        assert after.stats == before.stats
