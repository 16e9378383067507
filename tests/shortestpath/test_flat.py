"""Tests for the flat CSR search kernel and the engine selector."""

import gc
import math

import pytest

from repro.obs.counters import SearchCounters
from repro.shortestpath.astar import astar
from repro.shortestpath.dijkstra import DijkstraSearch, sssp
from repro.shortestpath.flat import (
    ENGINES,
    FlatDijkstraSearch,
    flat_astar,
    make_search,
    release_search,
    resolve_engine,
)
from repro.shortestpath.paths import collect_path_vertices


class TestMakeSearch:
    def test_dispatch(self, grid5):
        assert isinstance(make_search(grid5, 0, engine="flat"),
                          FlatDijkstraSearch)
        assert isinstance(make_search(grid5, 0, engine="dict"),
                          DijkstraSearch)

    def test_unknown_engine_rejected(self, grid5):
        with pytest.raises(ValueError, match="unknown engine"):
            make_search(grid5, 0, engine="cuda")

    def test_unknown_engine_lists_available(self):
        assert ENGINES == ("flat", "dict")
        for name in ("cuda", "numpy"):
            with pytest.raises(ValueError, match="unknown engine") as exc:
                resolve_engine(name)
            for engine in ENGINES:
                assert engine in str(exc.value)

    def test_source_outside_allowed_rejected(self, grid5):
        with pytest.raises(ValueError, match="allowed"):
            make_search(grid5, 0, allowed={1, 2}, engine="flat")

    def test_release_search_noop_on_dict_engine(self, grid5):
        release_search(make_search(grid5, 0, engine="dict"))


class TestFlatSearch:
    def test_full_sweep_matches_dict_engine(self, medium_network):
        flat = make_search(medium_network, 3, engine="flat")
        ref = make_search(medium_network, 3, engine="dict")
        flat.run_to_exhaustion()
        ref.run_to_exhaustion()
        assert flat.settled_order == ref.settled_order
        assert flat.expanded == ref.expanded
        for v in ref.dist:
            assert flat.dist[v] == pytest.approx(ref.dist[v])
        assert all(flat.pred[v] == ref.pred[v] for v in ref.pred)

    def test_staged_resume(self, grid5):
        flat = make_search(grid5, 0, engine="flat")
        ref = make_search(grid5, 0, engine="dict")
        assert flat.run_until_settled([24]) == ref.run_until_settled([24])
        r = flat.dist[24]
        flat.run_until_beyond(2 * r)
        ref.run_until_beyond(2 * r)
        assert flat.settled_order == ref.settled_order
        assert flat.is_exhausted() == ref.is_exhausted()

    def test_settle_next_and_next_key(self, path_network):
        search = make_search(path_network, 0, engine="flat")
        assert search.next_key() == 0.0
        assert search.settle_next() == (0, 0.0)
        assert search.next_key() == 1.0
        assert search.tentative(1) == 1.0
        assert search.tentative(4) is None

    def test_allowed_restriction(self, grid5):
        # Block the middle column; the right side becomes unreachable.
        allowed = {v for v in grid5.vertices() if v % 5 != 2}
        search = make_search(grid5, 0, allowed=allowed, engine="flat")
        assert not search.run_until_settled([4])
        assert 4 not in search.dist
        assert all(v % 5 != 2 for v in search.dist)

    def test_dist_view_mapping_api(self, path_network):
        search = make_search(path_network, 0, engine="flat")
        search.run_until_settled([2])
        assert 2 in search.dist and 4 not in search.dist
        assert "x" not in search.dist  # non-int membership
        assert search.dist.get(4) is None
        with pytest.raises(KeyError):
            search.dist[4]
        assert len(search.dist) == len(search.settled_order)
        assert list(search.dist) == search.settled_order
        assert dict(search.dist.items()) == {
            v: search.dist[v] for v in search.dist}

    def test_pred_view_walks_paths(self, grid5):
        search = make_search(grid5, 0, engine="flat")
        search.run_until_settled([24])
        into = set()
        collect_path_vertices(search.pred, 0, [24], into)
        assert 0 in into and 24 in into
        assert 0 not in search.pred  # the source never has a predecessor
        with pytest.raises(KeyError):
            search.pred[0]

    def test_tree_shares_live_views(self, path_network):
        search = make_search(path_network, 0, engine="flat")
        search.run_until_settled([1])
        tree = search.tree()
        assert tree.reached(1) and not tree.reached(4)
        search.run_to_exhaustion()
        assert tree.reached(4)  # live view extends with the search
        assert tree.path_to(4) == [0, 1, 2, 3, 4]


class TestRelease:
    def test_release_empties_views(self, path_network):
        search = make_search(path_network, 0, engine="flat")
        search.run_to_exhaustion()
        tree = search.tree()
        search.release()
        assert len(search.dist) == 0 or 4 not in search.dist
        assert not tree.reached(4)
        assert search.dist.get(4) is None

    def test_views_taken_before_release_read_empty(self, path_network):
        search = make_search(path_network, 0, engine="flat")
        search.run_to_exhaustion()
        dist, pred = search.dist, search.pred
        search.release()
        assert len(dist) == 0 and list(dist) == [] and dist.items() == []
        assert 4 not in dist and dist.get(4) is None
        assert len(pred) == 0 and 4 not in pred and pred.get(4) is None

    def test_released_searches_leave_no_cycles(self, medium_network):
        # A released search must not sit in a search <-> view cycle:
        # reference counting frees it, and nothing is left for the
        # cyclic collector.
        medium_network.csr()
        gc.collect()
        gc.disable()
        try:
            for source in range(20):
                search = make_search(medium_network, source, engine="flat")
                search.run_to_exhaustion()
                tree = search.tree()
                search.release()
                del search, tree
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_release_twice_is_noop(self, path_network):
        search = make_search(path_network, 0, engine="flat")
        search.release()
        search.release()

    def test_recycled_arena_never_leaks_into_old_views(self, path_network):
        first = make_search(path_network, 0, engine="flat")
        first.run_to_exhaustion()
        first.release()
        second = make_search(path_network, 4, engine="flat")
        second.run_to_exhaustion()
        # The recycled arena now carries the second search's data, but
        # the first search's retired generation can never match it.
        assert 0 not in first.dist
        assert len(list(first.pred)) == 0


class TestSSSPDispatch:
    def test_results_identical_across_engines(self, medium_network):
        a = sssp(medium_network, 7, engine="flat")
        b = sssp(medium_network, 7, engine="dict")
        assert set(a.dist) == set(b.dist)
        assert a.settled_order == b.settled_order
        for v in b.dist:
            assert a.dist[v] == pytest.approx(b.dist[v])

    def test_radius_truncation(self, grid5):
        a = sssp(grid5, 12, radius=2.0, engine="flat")
        b = sssp(grid5, 12, radius=2.0, engine="dict")
        assert set(a.dist) == set(b.dist)


class TestFlatAStar:
    def test_matches_dict_astar(self, medium_network):
        ca, cb = SearchCounters(), SearchCounters()
        a = flat_astar(medium_network, 5, 700, counters=ca)
        b = astar(medium_network, 5, 700, counters=cb)
        assert a.path == b.path
        assert a.distance == pytest.approx(b.distance)
        assert a.expanded == b.expanded
        assert ca.as_dict() == cb.as_dict()

    def test_source_equals_target(self, grid5):
        result = flat_astar(grid5, 3, 3)
        assert result.path == [3]
        assert result.distance == 0.0

    def test_no_path_raises(self):
        from repro.graph.network import RoadNetwork
        network = RoadNetwork(
            [(0.0, 0.0), (1.0, 0.0), (9.0, 9.0), (10.0, 9.0)],
            [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="no path"):
            flat_astar(network, 0, 3)

    def test_allowed_outside_raises(self, grid5):
        with pytest.raises(ValueError, match="allowed"):
            flat_astar(grid5, 0, 24, allowed={0, 1, 2})
