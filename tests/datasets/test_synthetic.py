"""Unit tests for the synthetic road-network generators."""

import pytest

from repro.core.roadpart.bridges import find_bridges
from repro.datasets.synthetic import (
    add_bridges,
    delaunay_network,
    grid_network,
    ring_radial_network,
)
from repro.graph.builder import metric_violation_ratio, validate_network
from repro.graph.components import is_connected


class TestGridNetwork:
    def test_model_properties(self):
        net = grid_network(20, 18, seed=3)
        assert validate_network(net) == []
        assert net.max_degree() <= 4
        assert net.num_edges <= 2 * net.num_vertices  # |E| = O(|V|)

    def test_deterministic(self):
        a = grid_network(12, 12, seed=9)
        b = grid_network(12, 12, seed=9)
        assert list(a.edges()) == list(b.edges())
        assert list(a.coords) == list(b.coords)

    def test_seed_changes_output(self):
        a = grid_network(12, 12, seed=1)
        b = grid_network(12, 12, seed=2)
        assert list(a.coords) != list(b.coords)

    def test_planar_by_construction(self):
        net = grid_network(15, 15, seed=4)
        assert len(find_bridges(net)) == 0

    def test_drop_rate_thins_edges(self):
        dense = grid_network(15, 15, seed=5, drop_rate=0.0)
        thin = grid_network(15, 15, seed=5, drop_rate=0.25)
        assert thin.num_edges < dense.num_edges
        assert is_connected(thin)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            grid_network(1, 5)
        with pytest.raises(ValueError):
            grid_network(5, 5, perturbation=1.5)
        with pytest.raises(ValueError):
            grid_network(5, 5, drop_rate=1.0)


class TestRingRadial:
    def test_model_properties(self):
        net = ring_radial_network(6, 20, seed=1)
        assert validate_network(net, max_degree=8) == []

    def test_size(self):
        net = ring_radial_network(4, 12, seed=0)
        assert net.num_vertices == 1 + 4 * 12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ring_radial_network(0, 10)
        with pytest.raises(ValueError):
            ring_radial_network(3, 2)


class TestDelaunay:
    def test_model_properties(self):
        pytest.importorskip("scipy")
        net = delaunay_network(400, seed=2)
        assert is_connected(net)
        assert metric_violation_ratio(net) <= 1.0
        assert net.num_edges <= 3 * net.num_vertices

    def test_planar(self):
        pytest.importorskip("scipy")
        net = delaunay_network(300, seed=6)
        assert len(find_bridges(net)) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            delaunay_network(3)


class TestAddBridges:
    def test_bridges_cross_and_are_detected(self):
        base = grid_network(20, 20, seed=7)
        net, injected = add_bridges(base, 10, (2.0, 5.0), seed=8)
        assert len(injected) == 10
        detected = find_bridges(net)
        for key in injected:
            assert key in detected

    def test_detected_superset_includes_crossed_partners(self):
        base = grid_network(20, 20, seed=7)
        net, injected = add_bridges(base, 10, (2.0, 5.0), seed=8)
        # Every injected flyover crosses ≥ 1 base edge, so detection
        # finds strictly more bridge edges than were injected.
        assert len(find_bridges(net)) > len(injected)

    def test_weights_metric(self):
        base = grid_network(20, 20, seed=7)
        net, _ = add_bridges(base, 10, (2.0, 5.0), seed=8)
        assert metric_violation_ratio(net) <= 1.0

    def test_preserves_base_edges(self):
        base = grid_network(15, 15, seed=9)
        net, injected = add_bridges(base, 5, (2.0, 5.0), seed=10)
        assert net.num_edges == base.num_edges + len(injected)
        for edge in base.edges():
            assert net.edge_weight(edge.u, edge.v) == edge.weight

    def test_gives_up_gracefully(self):
        # A 2x2 grid has no room for flyovers: zero bridges, no hang.
        base = grid_network(2, 2, seed=1, drop_rate=0.0)
        net, injected = add_bridges(base, 5, (0.5, 1.0), seed=2,
                                    max_attempts_factor=10)
        assert injected == []
        assert net.num_edges == base.num_edges


class TestMultiCity:
    def test_structure(self):
        from repro.datasets.synthetic import multi_city_network
        net, cities = multi_city_network(city_grid=(2, 2),
                                         city_size=(8, 8), seed=3)
        assert len(cities) == 4
        assert sum(len(c) for c in cities) == net.num_vertices
        # City vertex lists are disjoint.
        seen = set()
        for city in cities:
            assert not (seen & set(city))
            seen.update(city)

    def test_connected_and_metric(self):
        from repro.datasets.synthetic import multi_city_network
        from repro.graph.builder import validate_network
        net, _ = multi_city_network(city_grid=(3, 2),
                                    city_size=(8, 8), seed=4)
        assert validate_network(net) == []

    def test_highways_are_sparse(self):
        from repro.datasets.synthetic import multi_city_network
        net, cities = multi_city_network(city_grid=(2, 2),
                                         city_size=(8, 8), seed=5)
        city_of = {}
        for i, city in enumerate(cities):
            for v in city:
                city_of[v] = i
        highways = [e for e in net.edges()
                    if city_of[e.u] != city_of[e.v]]
        # 2x2 city lattice: 4 neighbour pairs, one highway each.
        assert len(highways) == 4

    def test_single_city_rejected(self):
        import pytest as _pytest
        from repro.datasets.synthetic import multi_city_network
        with _pytest.raises(ValueError):
            multi_city_network(city_grid=(1, 1))

    def test_deterministic(self):
        from repro.datasets.synthetic import multi_city_network
        a, _ = multi_city_network(city_grid=(2, 2), city_size=(6, 6),
                                  seed=9)
        b, _ = multi_city_network(city_grid=(2, 2), city_size=(6, 6),
                                  seed=9)
        assert list(a.edges()) == list(b.edges())
