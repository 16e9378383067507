"""Unit tests for RoadPart index construction and serialisation."""

import pytest

from repro.core.roadpart.bridges import find_bridges
from repro.core.roadpart.index import RoadPartIndex, build_index


class TestBuild:
    def test_basic_invariants(self, medium_network, medium_index):
        idx = medium_index
        assert idx.border_count == 8
        assert len(idx.border_vertex_ids) == 8
        assert idx.regions.dimensions == 8
        assert len(idx.regions.region_of) == medium_network.num_vertices
        assert idx.regions.region_count > idx.border_count
        assert idx.stats.build_seconds > 0

    def test_bridges_found_during_build(self, medium_network, medium_index):
        assert medium_index.bridges == find_bridges(medium_network)

    def test_precomputed_bridges_accepted(self, medium_network):
        bridges = find_bridges(medium_network)
        idx = build_index(medium_network, 6, bridges=bridges)
        assert idx.bridges == bridges

    def test_more_borders_more_regions(self, medium_network):
        small = build_index(medium_network, 4)
        large = build_index(medium_network, 10)
        assert large.regions.region_count > small.regions.region_count

    def test_more_borders_smaller_max_region(self, medium_network):
        """The ℓ-selection rule of Section VII-A: M decreases (weakly)
        as ℓ grows."""
        sizes = [build_index(medium_network, c).regions.max_region_size()
                 for c in (4, 8, 12)]
        assert sizes[0] >= sizes[-1]

    def test_index_size_estimate_reasonable(self, medium_network,
                                            medium_index):
        size = medium_index.index_size_bytes()
        assert size >= 4 * medium_network.num_vertices
        # An order of magnitude below raw coordinates+edges (Table I's
        # "index ~10x smaller than data" observation, loosely).
        assert size < 40 * medium_network.num_vertices

    def test_hull_contour_strategy(self, medium_network):
        idx = build_index(medium_network, 6, contour_strategy="hull")
        assert idx.stats.contour_strategy_used == "hull"
        assert idx.regions.region_count > 1

    def test_deterministic(self, medium_network):
        a = build_index(medium_network, 5)
        b = build_index(medium_network, 5)
        assert a.regions.region_of == b.regions.region_of
        assert a.regions.vectors == b.regions.vectors


class TestSerialisation:
    def test_round_trip(self, medium_network, medium_index, tmp_path):
        path = tmp_path / "index.rpix"
        medium_index.save_binary(path)
        loaded = RoadPartIndex.load_binary(path, medium_network)
        assert loaded.border_vertex_ids == medium_index.border_vertex_ids
        assert (list(loaded.regions.region_of)
                == medium_index.regions.region_of)
        assert loaded.regions.vectors == medium_index.regions.vectors
        assert loaded.bridges == medium_index.bridges

    def test_loaded_index_answers_queries(self, medium_network,
                                          medium_index, medium_query,
                                          tmp_path):
        from repro.core.roadpart.query import roadpart_dps
        path = tmp_path / "index.rpix"
        medium_index.save_binary(path)
        loaded = RoadPartIndex.load_binary(path, medium_network)
        original = roadpart_dps(medium_index, medium_query)
        reloaded = roadpart_dps(loaded, medium_query)
        assert original.vertices == reloaded.vertices

    def test_wrong_network_rejected(self, medium_index, grid5, tmp_path):
        path = tmp_path / "index.rpix"
        medium_index.save_binary(path)
        with pytest.raises(ValueError, match="index built for"):
            RoadPartIndex.load_binary(path, grid5)

    def test_wrong_format_rejected(self, grid5, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="rebuild the index"):
            RoadPartIndex.load_binary(path, grid5)
