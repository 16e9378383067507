"""Unit tests for the distance-preservation verifier (the verifier must
itself be trustworthy before it can back the rest of the suite)."""

import math

from repro.core.dps import DPSQuery, DPSResult
from repro.core.verify import pairwise_distances, verify_dps
from repro.graph.network import RoadNetwork


class TestVerify:
    def test_full_network_is_always_a_dps(self, grid5):
        query = DPSQuery.q_query([0, 4, 24])
        report = verify_dps(grid5, set(grid5.vertices()), query)
        assert report.ok
        assert report.pairs_checked == 9

    def test_detects_broken_subgraph(self, grid5):
        # Keep only the corners: 0 and 24 are disconnected in the induced
        # subgraph, so the verifier must fail with an infinite distance.
        query = DPSQuery.q_query([0, 24])
        report = verify_dps(grid5, {0, 24}, query)
        assert not report.ok
        assert any(math.isinf(f[3]) for f in report.failures)
        assert "broken" in report.summary()

    def test_detects_detour(self, grid5):
        # A connected subgraph that forces a longer route: the L along
        # the boundary preserves connectivity but the straight-line pair
        # (1, 21) (distance 4) is forced around (distance 6? no -- pick a
        # pair whose grid distance needs the removed interior).
        query = DPSQuery.q_query([6, 18])
        boundary = {v for v in grid5.vertices()
                    if v % 5 in (0, 4) or v // 5 in (0, 4)} | {6, 18}
        report = verify_dps(grid5, boundary, query)
        assert not report.ok
        s, t, want, got = report.failures[0]
        assert got > want

    def test_missing_query_vertex_fails_fast(self, grid5):
        query = DPSQuery.q_query([0, 24])
        report = verify_dps(grid5, {0, 1, 2}, query)
        assert not report.ok
        assert report.pairs_checked == 0

    def test_sampled_sources(self, medium_network, medium_query):
        report = verify_dps(medium_network, set(medium_network.vertices()),
                            medium_query, max_sources=5, seed=1)
        assert report.ok
        assert report.pairs_checked == 5 * len(medium_query.targets)

    def test_report_truthiness(self, grid5):
        ok_query = DPSQuery.q_query([0, 1])
        assert bool(verify_dps(grid5, set(grid5.vertices()), ok_query))
        broken = verify_dps(grid5, {0, 24}, DPSQuery.q_query([0, 24]))
        assert not bool(broken)

    def test_pair_without_path_in_g_is_preserved(self):
        # Components {0, 1, 2} and {3, 4}: dist(0, 4) is inf in G and in
        # every subgraph, so the pair is preserved, not a crash.
        net = RoadNetwork([(0, 0), (1, 0), (2, 0), (5, 5), (6, 5)],
                          [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        report = verify_dps(net, {0, 1, 2, 4},
                            DPSQuery.st_query([0], [2, 4]))
        assert report.ok
        assert report.pairs_checked == 2
        broken = verify_dps(net, {0, 2, 4}, DPSQuery.st_query([0], [2, 4]))
        assert [f[:2] for f in broken.failures] == [(0, 2)]

    def test_accepts_dpsresult(self, grid5):
        query = DPSQuery.q_query([0, 1])
        result = DPSResult("t", query, frozenset(grid5.vertices()))
        assert verify_dps(grid5, result, query).ok


class TestPairwiseDistances:
    def test_matches_manhattan(self, grid5):
        out = pairwise_distances(grid5, [0], [4, 24])
        assert out[(0, 4)] == 4.0
        assert out[(0, 24)] == 8.0

    def test_restricted(self, grid5):
        allowed = set(grid5.vertices()) - {2, 7, 12}
        out = pairwise_distances(grid5, [0], [4], allowed=allowed)
        assert out[(0, 4)] == 10.0

    def test_unreachable_is_inf(self, grid5):
        out = pairwise_distances(grid5, [0], [24], allowed={0, 1, 24})
        assert math.isinf(out[(0, 24)])
