"""Unit tests for :func:`repro.shortestpath.settle.settle_targets`.

The property tests in ``tests/property/test_settle_equivalence.py`` pin
the goal-directed kernel's answers to the reference on random networks;
these pin its error paths, its scratch hygiene and the settle saving it
exists for.
"""

import pytest

from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.core.hull import convex_hull_dps
from repro.errors import DeadlineExceeded
from repro.graph.network import RoadNetwork
from repro.obs import QueryStats
from repro.obs.counters import SearchCounters
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
        rounds = settle_targets(medium_network, q, q, into, engine="flat")
        assert rounds == len(q)
        assert into == _reference(medium_network, q, q)

    def test_empty_side_runs_no_round(self, grid5):
        into = set()
        assert settle_targets(grid5, [], [1, 2], into) == 0
        assert settle_targets(grid5, [1, 2], [], into) == 0
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
