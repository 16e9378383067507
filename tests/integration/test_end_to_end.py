"""End-to-end integration: all four algorithms on shared workloads, with
the paper's qualitative relationships asserted."""

import pytest

from repro.core.ble import bl_efficiency
from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.core.hull import convex_hull_dps
from repro.core.roadpart.index import build_index
from repro.core.roadpart.query import roadpart_dps
from repro.core.verify import verify_dps
from repro.datasets.queries import st_query, window_query
from repro.datasets.synthetic import add_bridges, grid_network, ring_radial_network


@pytest.fixture(scope="module")
def workbench():
    base = grid_network(32, 30, seed=77)
    network, _ = add_bridges(base, 14, (2.0, 5.0), seed=78)
    index = build_index(network, border_count=8)
    return network, index


def _all_four(network, index, query):
    return {
        "BL-Q": bl_quality(network, query),
        "BL-E": bl_efficiency(network, query),
        "RoadPart": roadpart_dps(index, query),
        "Hull": convex_hull_dps(network, query),
    }


class TestAllAlgorithmsAgree:
    @pytest.mark.parametrize("epsilon,seed", [(0.1, 1), (0.2, 2), (0.35, 3)])
    def test_q_dps_all_verify(self, workbench, epsilon, seed):
        network, index = workbench
        query = DPSQuery.q_query(window_query(network, epsilon, seed=seed))
        for name, result in _all_four(network, index, query).items():
            report = verify_dps(network, result, query, max_sources=8,
                                seed=seed)
            assert report.ok, f"{name}: {report.summary()}"

    @pytest.mark.parametrize("eps_prime,seed", [(0.2, 4), (0.5, 5)])
    def test_st_dps_all_verify(self, workbench, eps_prime, seed):
        network, index = workbench
        s, t = st_query(network, 0.08, eps_prime, seed=seed)
        query = DPSQuery.st_query(s, t)
        for name, result in _all_four(network, index, query).items():
            report = verify_dps(network, result, query, max_sources=6,
                                seed=seed)
            assert report.ok, f"{name}: {report.summary()}"

    def test_quality_ordering(self, workbench):
        """The paper's Table II / Fig 11 ordering:
        BL-Q ≤ Hull ≤ RoadPart (usually) and BL-Q ≤ RoadPart ≤ BL-E."""
        network, index = workbench
        query = DPSQuery.q_query(window_query(network, 0.25, seed=9))
        results = _all_four(network, index, query)
        assert results["BL-Q"].size <= results["Hull"].size
        assert results["BL-Q"].size <= results["RoadPart"].size
        assert results["RoadPart"].size <= results["BL-E"].size

    def test_refinement_pipeline(self, workbench):
        """The paper's recommended deployment: RoadPart at the server,
        hull refinement at the client, PPSP on the final DPS."""
        from repro.shortestpath.astar import astar
        network, index = workbench
        query = DPSQuery.q_query(window_query(network, 0.25, seed=10))
        server_dps = roadpart_dps(index, query)
        client_dps = convex_hull_dps(network, query, base=server_dps)
        assert client_dps.size <= server_dps.size
        assert verify_dps(network, client_dps, query, max_sources=8).ok
        # PPSP restricted to the client DPS returns true distances.
        q = sorted(query.combined)
        s, t = q[0], q[-1]
        on_dps = astar(network, s, t, allowed=set(client_dps.vertices))
        on_full = astar(network, s, t)
        assert on_dps.distance == pytest.approx(on_full.distance)
        assert on_dps.expanded <= on_full.expanded

    def test_extracted_subgraph_self_contained(self, workbench):
        """Extract the DPS as a standalone network (the mobile-client
        story of Section I) and answer PPSP queries on it."""
        from repro.shortestpath.dijkstra import sssp
        network, index = workbench
        query = DPSQuery.q_query(window_query(network, 0.2, seed=11))
        dps = roadpart_dps(index, query)
        device, mapping = dps.extract(network)
        back = {old: new for new, old in enumerate(mapping)}
        q = sorted(query.combined)
        s, t = q[0], q[-1]
        on_device = sssp(device, back[s], targets=[back[t]])
        on_server = sssp(network, s, targets=[t])
        assert on_device.dist[back[t]] == pytest.approx(on_server.dist[t])


class TestAcrossTopologies:
    def test_ring_radial_city(self):
        network = ring_radial_network(12, 36, seed=81)
        index = build_index(network, border_count=6)
        query = DPSQuery.q_query(window_query(network, 0.3, seed=82))
        for name, result in _all_four(network, index, query).items():
            assert verify_dps(network, result, query,
                              max_sources=8).ok, name

    def test_delaunay_with_bridges(self):
        pytest.importorskip("scipy")
        from repro.datasets.synthetic import delaunay_network
        base = delaunay_network(700, seed=83)
        network, _ = add_bridges(base, 8, (6.0, 18.0), seed=84)
        index = build_index(network, border_count=7)
        query = DPSQuery.q_query(window_query(network, 0.3, seed=85))
        for name, result in _all_four(network, index, query).items():
            assert verify_dps(network, result, query,
                              max_sources=8).ok, name

    def test_hull_contour_index_still_correct(self):
        """Ablation C's robustness claim: the hull-contour index is
        looser but answers must stay distance-preserving."""
        base = grid_network(25, 25, seed=86)
        network, _ = add_bridges(base, 10, (2.0, 5.0), seed=87)
        index = build_index(network, border_count=8,
                            contour_strategy="hull")
        query = DPSQuery.q_query(window_query(network, 0.25, seed=88))
        result = roadpart_dps(index, query)
        assert verify_dps(network, result, query, max_sources=8).ok

    def test_equifrequency_border_index_still_correct(self):
        base = grid_network(25, 25, seed=89)
        network, _ = add_bridges(base, 10, (2.0, 5.0), seed=90)
        index = build_index(network, border_count=8,
                            border_method="equi-frequency")
        query = DPSQuery.q_query(window_query(network, 0.25, seed=91))
        result = roadpart_dps(index, query)
        assert verify_dps(network, result, query, max_sources=8).ok
