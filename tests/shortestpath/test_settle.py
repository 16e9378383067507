"""Unit tests for :func:`repro.shortestpath.settle.settle_targets`.

The property tests in ``tests/property/test_settle_equivalence.py`` pin
the goal-directed kernel's answers to the reference on random networks;
these pin its error paths, its scratch hygiene, the settle saving it
exists for and the rounds it spreads over fork workers.
"""

import math
import multiprocessing
import os
import threading

import pytest

from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.core.hull import convex_hull_dps
from repro.core.roadpart.query import roadpart_dps
from repro.datasets.queries import window_query
from repro.errors import DeadlineExceeded
from repro.forkpool import fork_available
from repro.graph.network import RoadNetwork
from repro.obs import QueryStats
from repro.obs.counters import SearchCounters
from repro.serve import run_queries
from repro.shortestpath import settle
from repro.shortestpath.deadline import DEADLINE_CHECK_INTERVAL, Deadline
from repro.shortestpath.settle import settle_targets


class _ExpiresMidRound(Deadline):
    """Passes the entry check of every round, then reads as expired at
    the first in-loop clock read, after the round dirtied its arena."""

    def __init__(self) -> None:
        super().__init__(expires_at=0.0)

    def check(self) -> None:
        pass


def _reference(network, sources, targets):
    into = set()
    settle_targets(network, sources, targets, into, engine="dict")
    return into


class TestAnswers:

    def test_matches_reference(self, medium_network, medium_query):
        q = sorted(medium_query.sources)
        into = set()
        run = settle_targets(medium_network, q, q, into, engine="flat")
        assert run.rounds == len(q)
        assert into == _reference(medium_network, q, q)

    def test_empty_side_runs_no_round(self, grid5):
        into = set()
        assert settle_targets(grid5, [], [1, 2], into).rounds == 0
        assert settle_targets(grid5, [1, 2], [], into).rounds == 0
        assert into == set()

    def test_zero_length_arc_keeps_reference_predecessor(self):
        # s=2 enters the twins {0, 3} through 3 only; 0 gets its label
        # over the zero-weight twin edge.  Both relax v=1 with the same
        # label, and the reference settles 3 first, so sp(2, 1) is
        # 2-3-1.  Id order alone would pick 0 and add it to the answer.
        net = RoadNetwork([(1, 0), (2, 0), (0, 0), (1, 0)],
                          [(2, 3, 1.0), (3, 0, 0.0), (0, 1, 1.0),
                           (3, 1, 1.0)])
        assert net.lower_bound_scale() > 0.0
        into = set()
        settle_targets(net, [2], [1], into)
        assert into == {1, 2, 3} == _reference(net, [2], [1])


class TestErrors:

    @pytest.mark.parametrize("engine", ["flat", "dict"])
    def test_disconnected_targets_raise(self, engine):
        net = RoadNetwork([(0, 0), (1, 0), (5, 5), (6, 5)],
                          [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="unreachable"):
            settle_targets(net, [0], [1, 3], set(), engine=engine)

    def test_unknown_engine_raises(self, grid5):
        with pytest.raises(ValueError, match="unknown engine"):
            settle_targets(grid5, [0], [4], set(), engine="cuda")
        with pytest.raises(ValueError, match="unknown engine"):
            bl_quality(grid5, DPSQuery.q_query([0, 4]), engine="cuda")

    def test_deadline_mid_round_restores_the_arena(self, medium_network):
        # Corner to corner: one round settles far more vertices than a
        # deadline check interval.
        s, t = [0], [medium_network.num_vertices - 1]
        pool = medium_network.csr()._pool
        counters = SearchCounters()
        with pytest.raises(DeadlineExceeded):
            settle_targets(medium_network, s, t, set(), counters=counters,
                           deadline=_ExpiresMidRound())
        # The round was interrupted after real work...
        assert counters.vertices_settled >= DEADLINE_CHECK_INTERVAL
        # ...and its arena went back to the pool all-inf: the next call
        # draws it and answers as the reference does.
        assert pool.free_count >= 1
        again = set()
        settle_targets(medium_network, s, t, again)
        assert again == _reference(medium_network, s, t)


class TestSettleSaving:
    """The kernel's reason to exist, as a deterministic count: on the
    medium window (ratio 0.66 for BL-Q and 0.69 for the hull when
    measured) the goal-directed kernel settles at most three quarters of
    the vertices the reference settles, for the same answer."""

    @pytest.mark.parametrize("algorithm", [bl_quality, convex_hull_dps])
    def test_settles_fewer_vertices(self, medium_network, medium_query,
                                    algorithm):
        settled = {}
        answers = {}
        for engine in ("flat", "dict"):
            stats = QueryStats()
            answers[engine] = algorithm(medium_network, medium_query,
                                        stats=stats, engine=engine)
            settled[engine] = stats.counters.vertices_settled
        assert answers["flat"].vertices == answers["dict"].vertices
        assert settled["flat"] <= 0.75 * settled["dict"]


# ----------------------------------------------------------------------
# Forked rounds
# ----------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform")


@pytest.fixture
def fork_always(monkeypatch):
    """Every call of two or more rounds forks, over two processes."""
    monkeypatch.setattr(settle, "FORK_SETTLES", 0)
    monkeypatch.setattr(settle, "usable_cpus", lambda: 2)


class _ExpiresInWorkers(Deadline):
    """Never expires in the process that made it and has expired in
    every process forked from it."""

    def __init__(self) -> None:
        self.budget = None
        self._owner = os.getpid()

    @property
    def expires_at(self) -> float:
        return math.inf if os.getpid() == self._owner else 0.0


def _die(share):
    """A share worker that kills its process."""
    os._exit(7)


def _no_worker_left():
    return (multiprocessing.active_children() == []
            and threading.active_count() == 1)


def _serial_and_forked(monkeypatch, call, cpus=2):
    """``call(stats)`` run serially, then with every round forked over
    ``cpus`` processes; returns both ``(result, stats)`` pairs."""
    monkeypatch.setattr(settle, "usable_cpus", lambda: cpus)
    runs = []
    for work in (math.inf, 0):
        monkeypatch.setattr(settle, "FORK_SETTLES", work)
        stats = QueryStats()
        runs.append((call(stats), stats))
    return runs


def _st_query(network):
    return DPSQuery.st_query(window_query(network, 0.15, seed=5),
                             window_query(network, 0.2, seed=6))


def _unreachable_from(off_map, engine, monkeypatch, work):
    """The error of sources 0..3 towards targets {4, 5}, where the
    sources in ``off_map`` lie on a second path, apart from the first."""
    on_map = [v for v in range(4) if v not in off_map] + [4, 5]
    off = sorted(off_map)
    coords = {v: (float(x), 0.0) for x, v in enumerate(on_map)}
    coords.update({v: (float(x), 5.0) for x, v in enumerate(off)})
    edges = [(a, b, 1.0) for path in (on_map, off)
             for a, b in zip(path, path[1:])]
    net = RoadNetwork([coords[v] for v in range(6)], edges)
    monkeypatch.setattr(settle, "FORK_SETTLES", work)
    with pytest.raises(ValueError, match="unreachable") as caught:
        settle_targets(net, range(4), [4, 5], set(), engine=engine)
    return str(caught.value)


@needs_fork
class TestForkedRounds:
    """Rounds spread over fork workers answer as the serial loop does:
    the same vertices, rounds and counters, and the same errors."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("case", ["blq", "blq-st", "blq-dict", "hull",
                                      "hull-st", "hull-refined"])
    def test_answers_and_counters_equal_serial(self, monkeypatch, case,
                                               cpus, medium_network,
                                               medium_index, medium_query):
        net = medium_network
        query = _st_query(net) if case.endswith("-st") else medium_query
        if case.startswith("blq"):
            engine = "dict" if case == "blq-dict" else "flat"

            def call(stats):
                return bl_quality(net, query, stats=stats, engine=engine)
        else:
            base = (roadpart_dps(medium_index, query)
                    if case == "hull-refined" else None)

            def call(stats):
                return convex_hull_dps(net, query, base=base, stats=stats)
        (want, want_stats), (got, got_stats) = _serial_and_forked(
            monkeypatch, call, cpus)
        assert got.vertices == want.vertices
        assert got.stats["sssp_rounds"] == want.stats["sssp_rounds"] > 2
        assert got_stats.counters.as_dict() == want_stats.counters.as_dict()
        assert want.stats["workers"] == 1
        assert got.stats["workers"] == cpus
        assert got_stats.phase_total <= got_stats.seconds
        assert _no_worker_left()

    @pytest.mark.parametrize("engine", ["flat", "dict"])
    @pytest.mark.parametrize("off_map", [{1, 2}, {2, 3}])
    def test_unreachable_error_is_the_serial_loops(self, monkeypatch,
                                                   engine, off_map):
        # Two shares: with {1, 2} the lowest failing source lies in the
        # worker's share, with {2, 3} in the caller's.
        monkeypatch.setattr(settle, "usable_cpus", lambda: 2)
        serial = _unreachable_from(off_map, engine, monkeypatch, math.inf)
        forked = _unreachable_from(off_map, engine, monkeypatch, 0)
        assert forked == serial
        assert f"unreachable from {min(off_map)} " in serial
        assert _no_worker_left()

    def test_deadline_in_a_worker_reaches_the_caller(self, fork_always,
                                                     medium_network,
                                                     medium_query):
        q = sorted(medium_query.sources)
        pool = medium_network.csr()._pool
        with pytest.raises(DeadlineExceeded):
            settle_targets(medium_network, q, q, set(),
                           deadline=_ExpiresInWorkers())
        assert _no_worker_left()
        # The caller's own share ran to the end and its arena went back
        # to the pool all-inf: the next call draws it and answers as
        # the reference does.
        assert pool.free_count >= 1
        assert all(d == math.inf for arena in pool._free
                   for d in arena.dist)
        again = set()
        settle_targets(medium_network, q, q, again)
        assert again == _reference(medium_network, q, q)

    def test_a_dead_workers_share_reruns_in_the_caller(self, monkeypatch,
                                                       medium_network,
                                                       medium_query):
        monkeypatch.setattr(settle, "_share_worker", _die)
        (want, want_stats), (got, got_stats) = _serial_and_forked(
            monkeypatch, lambda stats: bl_quality(
                medium_network, medium_query, stats=stats))
        assert got.vertices == want.vertices
        assert got_stats.counters.as_dict() == want_stats.counters.as_dict()
        assert _no_worker_left()

    def test_consecutive_calls_both_fork(self, fork_always, medium_network,
                                         medium_query):
        first = bl_quality(medium_network, medium_query)
        second = convex_hull_dps(medium_network, medium_query)
        third = bl_quality(medium_network, medium_query)
        assert [r.stats["workers"] for r in (first, second, third)] \
            == [2, 2, 2]
        assert first.vertices == third.vertices
        assert _no_worker_left()

    def test_another_thread_keeps_the_loop_serial(self, fork_always,
                                                  medium_network,
                                                  medium_query):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            result = bl_quality(medium_network, medium_query)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert result.stats["workers"] == 1

    def test_rounds_inside_a_batch_worker_stay_serial(self, fork_always,
                                                      medium_network,
                                                      medium_query):
        outcome = run_queries("blq", [medium_query] * 2,
                              network=medium_network, jobs=2)
        assert outcome.effective_jobs == 2
        assert [r.stats["workers"] for r in outcome.results] == [1, 1]
        assert _no_worker_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity masks on this platform")
    def test_one_usable_cpu_keeps_the_loop_serial(self, monkeypatch,
                                                  medium_network,
                                                  medium_query):
        monkeypatch.setattr(settle, "FORK_SETTLES", 0)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            result = bl_quality(medium_network, medium_query)
        finally:
            os.sched_setaffinity(0, mask)
        assert result.stats["workers"] == 1

    def test_small_calls_stay_serial(self, medium_network, medium_query):
        # The medium window's rounds add up to a few thousand settles,
        # far below what pays for a fork.
        assert bl_quality(medium_network, medium_query).stats["workers"] \
            == 1
