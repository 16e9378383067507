"""Unit tests for RoadPart query processing."""

import pytest

from repro.core.dps import DPSQuery
from repro.core.roadpart.index import build_index
from repro.core.roadpart.query import RoadPartQueryProcessor, roadpart_dps
from repro.core.verify import verify_dps
from repro.datasets.queries import st_query, window_query


class TestBasicQueries:
    def test_q_dps_verifies(self, medium_network, medium_index,
                            medium_query):
        result = roadpart_dps(medium_index, medium_query)
        assert result.algorithm == "RoadPart"
        assert verify_dps(medium_network, result, medium_query,
                          max_sources=10).ok

    def test_st_dps_verifies(self, medium_network, medium_index):
        s, t = st_query(medium_network, 0.1, 0.45, seed=61)
        query = DPSQuery.st_query(s, t)
        result = roadpart_dps(medium_index, query)
        assert verify_dps(medium_network, result, query, max_sources=8).ok

    def test_small_query_verifies(self, medium_network, medium_index):
        query = DPSQuery.q_query([0, medium_network.num_vertices - 1])
        result = roadpart_dps(medium_index, query)
        assert verify_dps(medium_network, result, query).ok

    def test_single_vertex_query(self, medium_network, medium_index):
        query = DPSQuery.q_query([37])
        result = roadpart_dps(medium_index, query)
        assert 37 in result.vertices

    def test_stats_present(self, medium_index, medium_query):
        result = roadpart_dps(medium_index, medium_query)
        for key in ("b", "bv", "regions_kept", "query_regions"):
            assert key in result.stats
        assert result.stats["bv"] <= result.stats["b"]

    def test_result_is_union_of_regions_plus_patches(self, medium_index,
                                                     medium_query):
        """Every kept region's vertices appear wholesale -- the region
        granularity effect the paper blames for loose small-query DPSs."""
        result = roadpart_dps(medium_index, medium_query)
        regions = medium_index.regions
        for rid in regions.regions_of_vertices(medium_query.combined):
            assert set(regions.members[rid]) <= set(result.vertices)


class TestWindowModes:
    def test_loose_window_is_superset(self, medium_network, medium_index,
                                      medium_query):
        tight = roadpart_dps(medium_index, medium_query)
        loose = RoadPartQueryProcessor(
            medium_index, window_mode="loose").query(medium_query)
        assert set(tight.vertices) <= set(loose.vertices)
        assert verify_dps(medium_network, loose, medium_query,
                          max_sources=6).ok

    def test_invalid_mode_rejected(self, medium_index):
        with pytest.raises(ValueError):
            RoadPartQueryProcessor(medium_index, window_mode="medium")


class TestOptionValidation:
    """Bad options fail at construction, like a bad ``window_mode`` or
    ``oracle`` -- not only once some bridge reaches the code reading
    them (never, on a bridgeless index)."""

    @pytest.fixture(scope="class")
    def bridgeless_index(self, grid5):
        index = build_index(grid5, border_count=4)
        assert not index.bridges
        return index

    def test_unknown_engine_rejected(self, bridgeless_index):
        with pytest.raises(ValueError, match="unknown engine 'numpy'"):
            RoadPartQueryProcessor(bridgeless_index, engine="numpy")

    def test_unknown_cut_pair_order_rejected(self, bridgeless_index):
        with pytest.raises(ValueError,
                           match="unknown cut-pair order 'bogus'"):
            RoadPartQueryProcessor(bridgeless_index,
                                   cut_pair_order="bogus")


class TestBridgeHandling:
    def test_pruning_toggles_only_add_examined(self, medium_network,
                                               medium_index, medium_query):
        default = RoadPartQueryProcessor(medium_index)
        no_cor3 = RoadPartQueryProcessor(medium_index,
                                         prune_corollary3=False)
        paper_thm7 = RoadPartQueryProcessor(medium_index,
                                            prune_theorem7=True)
        everything = RoadPartQueryProcessor(medium_index,
                                            examine_all_bridges=True)
        b_default = default.query(medium_query).stats["b"]
        b_cor3 = no_cor3.query(medium_query).stats["b"]
        b_thm7 = paper_thm7.query(medium_query).stats["b"]
        b_all = everything.query(medium_query).stats["b"]
        assert b_default <= b_cor3 <= b_all
        # the paper's Theorem 7 only ever removes examinations
        assert b_thm7 <= b_default <= b_all
        assert b_all == len(medium_index.bridges)

    def test_pruned_and_unpruned_agree_on_validity(self, medium_network,
                                                   medium_index,
                                                   medium_query):
        """Pruning may only drop *invalid* bridges: the valid set (and so
        the patched vertex set) must not shrink."""
        pruned = roadpart_dps(medium_index, medium_query)
        unpruned = RoadPartQueryProcessor(
            medium_index, examine_all_bridges=True).query(medium_query)
        assert pruned.stats["bv"] <= unpruned.stats["bv"]
        assert set(pruned.vertices) <= set(unpruned.vertices)
        assert verify_dps(medium_network, unpruned, medium_query,
                          max_sources=6).ok

    def test_examined_bridges_small_fraction(self, medium_index,
                                             medium_query):
        """The paper's headline bridge result: b is a small fraction of
        |Eb| after pruning."""
        result = roadpart_dps(medium_index, medium_query)
        assert result.stats["b"] <= max(2, 0.7 * len(medium_index.bridges))

    def test_cut_pair_orders_both_verify(self, medium_network,
                                         medium_index, medium_query):
        for order in ("load", "dimension"):
            result = RoadPartQueryProcessor(
                medium_index, cut_pair_order=order).query(medium_query)
            assert verify_dps(medium_network, result, medium_query,
                              max_sources=5).ok


class TestBridgeCorrectness:
    def test_bridge_shortcut_preserved(self, bridge_network):
        """Queries whose shortest path runs over the flyover: the DPS must
        keep the flyover reachable (dist via bridge 2.4 < 3)."""
        from repro.core.roadpart.index import build_index
        index = build_index(bridge_network, border_count=4)
        query = DPSQuery.q_query([6, 13, 0])
        result = roadpart_dps(index, query)
        assert verify_dps(bridge_network, result, query).ok

    def test_theorem7_can_drop_a_needed_bridge(self):
        """Regression for the Hypothesis-found counterexample that made
        ``prune_theorem7`` default to off: on this network the paper's
        Theorem 7 prunes the crossed grid edge (121, 135) -- wholly
        outside earlier window boundaries but the shortcut the only
        shortest path 0-152 runs over -- so the pruned DPS breaks the
        distance while the default (no Theorem 7) preserves it."""
        from repro.core.roadpart.index import build_index
        from repro.datasets.synthetic import add_bridges, grid_network
        base = grid_network(14, 13, seed=4, drop_rate=0.15)
        network, _ = add_bridges(base, 1, (1.8, 4.5), seed=1004)
        index = build_index(network, border_count=5)
        query = DPSQuery.q_query([0, 152])
        sound = roadpart_dps(index, query)
        assert verify_dps(network, sound, query).ok
        paper = RoadPartQueryProcessor(
            index, prune_theorem7=True).query(query)
        assert not verify_dps(network, paper, query).ok, (
            "the paper's Theorem 7 no longer breaks this query -- "
            "re-evaluate whether the prune can be back on by default")

    def test_wide_query_keeps_examined_bridges_tiny(self, medium_network,
                                                    medium_index):
        """A near-total window makes almost every bridge interior
        (Theorem 6); only the handful near the window's residual
        boundaries can need examining."""
        query = DPSQuery.q_query(window_query(medium_network, 0.97,
                                              center=medium_network
                                              .bounds().center()))
        result = roadpart_dps(medium_index, query)
        assert result.stats["b"] <= 0.5 * len(medium_index.bridges)
        assert verify_dps(medium_network, result, query, max_sources=4).ok
