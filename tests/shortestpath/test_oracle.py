"""Unit tests for the bridge-domain distance-oracle facade.

The contract under test: the hub-label oracle answers the workload
pairs ``(x, bridge endpoint)`` *exactly*, its payload round-trips
through the flat-array form the serialisers use, and the policy
resolution behind ``oracle="auto"`` matches its documentation.
"""

import math

import pytest

from repro.core.roadpart.bridges import find_bridges
from repro.datasets.synthetic import add_bridges, grid_network
from repro.shortestpath import (
    HubOracle,
    ORACLE_POLICIES,
    build_oracle,
    oracle_from_payload,
    resolve_oracle_kind,
)
from repro.shortestpath.dijkstra import sssp


@pytest.fixture(scope="module")
def bridged():
    """A small perturbed grid with flyovers, plus its detected bridges
    (the exact set an index build would hand the oracle)."""
    base = grid_network(10, 9, seed=5, drop_rate=0.1)
    network, _ = add_bridges(base, 6, (2.5, 5.0), seed=8)
    bridges = sorted(find_bridges(network))
    assert bridges, "fixture must produce a bridged network"
    return network, bridges


@pytest.fixture(scope="module")
def targets(bridged):
    network, _ = bridged
    return list(range(0, network.num_vertices, 7))


def _true_distances(network, source, targets):
    tree = sssp(network, source)
    return {x: tree.dist[x] for x in targets if x in tree.dist}


class TestPolicyResolution:
    def test_auto_is_hub_with_bridges(self):
        assert resolve_oracle_kind("auto", [(0, 1)]) == "hub"

    def test_auto_is_none_without_bridges(self):
        assert resolve_oracle_kind("auto", []) == "none"

    def test_concrete_kinds_pass_through(self):
        # "none" is the one policy that already names a concrete kind.
        assert resolve_oracle_kind("none", [(0, 1)]) == "none"

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown oracle kind"):
            resolve_oracle_kind("plateau", [(0, 1)])

    def test_policies_are_auto_and_none(self):
        assert ORACLE_POLICIES == ("auto", "none")
        for retired in ("hub", "ch"):
            with pytest.raises(ValueError, match="unknown oracle kind"):
                resolve_oracle_kind(retired, [(0, 1)])

    def test_build_oracle_none(self, bridged):
        network, bridges = bridged
        assert build_oracle(network, "none", bridges) is None
        assert build_oracle(network, "auto", []) is None

    def test_resolve_does_not_consume_sized_iterables(self):
        """Regression: the 'auto' emptiness probe used to drain its
        argument with ``any()``; sized containers must come back
        untouched."""
        class CountingBridges(list):
            def __init__(self, items):
                super().__init__(items)
                self.iterated = False

            def __iter__(self):
                self.iterated = True
                return super().__iter__()

        bridges = CountingBridges([(0, 1), (2, 3)])
        assert resolve_oracle_kind("auto", bridges) == "hub"
        assert not bridges.iterated
        assert list(bridges) == [(0, 1), (2, 3)]

    def test_resolve_accepts_generators(self):
        assert resolve_oracle_kind("auto", (b for b in [(0, 1)])) == "hub"
        assert resolve_oracle_kind("auto", (b for b in [])) == "none"

    def test_build_oracle_accepts_generator_bridges(self, bridged):
        """Regression: build_oracle drained a generator in the resolve
        probe and then built a hub oracle over *no* endpoints.  A
        generator must now yield the same oracle as the list."""
        network, bridges = bridged
        from_list = build_oracle(network, "auto", bridges)
        from_gen = build_oracle(network, "auto", (b for b in bridges))
        assert from_gen is not None
        assert from_gen.hub_order == from_list.hub_order
        assert from_gen.to_payload() == from_list.to_payload()


class TestHubOracle:
    @pytest.fixture(scope="class")
    def oracle(self, bridged):
        network, bridges = bridged
        return HubOracle.build(network, bridges)

    def test_covers_exactly_the_endpoints(self, bridged, oracle):
        network, bridges = bridged
        endpoints = {e for bridge in bridges for e in bridge}
        u, v = bridges[0]
        assert oracle.covers(u, v)
        outsider = next(x for x in range(network.num_vertices)
                        if x not in endpoints)
        assert not oracle.covers(u, outsider)

    def test_distances_exact_for_workload_pairs(self, bridged, oracle,
                                                targets):
        """The partial PLL must be exact for every (x, endpoint) pair --
        the soundness claim the query processor relies on."""
        network, bridges = bridged
        scratch = oracle.scratch(targets)
        for u, v in bridges:
            du_map, dv_map = scratch.domain_maps(u, v)
            for endpoint, got in ((u, du_map), (v, dv_map)):
                expect = _true_distances(network, endpoint, targets)
                assert set(got) == set(expect)
                for x, d in expect.items():
                    assert math.isclose(got[x], d, rel_tol=1e-12,
                                        abs_tol=1e-12)

    def test_bridge_valid_matches_domains(self, bridged, oracle, targets):
        network, bridges = bridged
        scratch = oracle.scratch(targets)
        for u, v in bridges:
            weight = network.edge_weight(u, v)
            ud, vd = scratch.domains(u, v, weight)
            assert scratch.bridge_valid(u, v, weight) == bool(ud and vd)

    def test_payload_round_trip(self, bridged, oracle, targets):
        network, bridges = bridged
        back = oracle_from_payload(oracle.to_payload())
        assert isinstance(back, HubOracle)
        assert back.hub_order == oracle.hub_order
        assert back.entry_count() == oracle.entry_count()
        u, v = bridges[0]
        assert (back.scratch(targets).domain_maps(u, v)
                == oracle.scratch(targets).domain_maps(u, v))

    def test_describe_mentions_kind_and_size(self, oracle):
        text = oracle.describe()
        assert "hub" in text
        assert str(len(oracle.hub_order)) in text

    def test_numpy_engine_degrades_to_scalar_builder(self, bridged,
                                                     oracle, monkeypatch):
        """engine='numpy' without a backend (REPRO_VEC_DISABLE) must run
        the scalar builder and produce the identical oracle (the
        standard engine-registry fallback)."""
        from repro.vec.backend import ENV_DISABLE, reset_backend_probe
        network, bridges = bridged
        monkeypatch.setenv(ENV_DISABLE, "1")
        reset_backend_probe()
        try:
            degraded = HubOracle.build(network, bridges, engine="numpy")
        finally:
            reset_backend_probe()
        assert degraded.to_payload() == oracle.to_payload()


class TestPayloadValidation:
    def test_unknown_kind_raises(self):
        for kind in ("plateau", "ch"):
            with pytest.raises(ValueError, match="unknown oracle payload"):
                oracle_from_payload({"kind": kind})
