"""Unit tests for the bridge-domain oracle: the endpoint tree table.

The contract under test: the table's rows are the exact shortest-path
distances of the bridge endpoints and the predecessors derived from
them are the flat kernel's trees, its domains and path patches equal
the dual-heap search's, a table rebuilt from its hubs and flat rows
(what an index file stores) answers the same, corrupt cells raise
``IndexFormatError``
where a query reads them (tree walks included), and the policy
resolution behind ``oracle="auto"`` matches its documentation.
"""

import math
from array import array

import pytest

from repro.core.roadpart.bridges import find_bridges
from repro.datasets.synthetic import add_bridges, grid_network
from repro.errors import IndexFormatError
from repro.shortestpath import (
    HubOracle,
    ORACLE_POLICIES,
    build_oracle,
    resolve_oracle_kind,
)
from repro.shortestpath.bidirectional import bridge_domains
from repro.shortestpath.dijkstra import sssp
from repro.shortestpath.flat import FlatDijkstraSearch
from repro.shortestpath.paths import collect_path_vertices


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
        probe and then built an oracle over *no* endpoints.  A
        generator must now yield the same oracle as the list."""
        network, bridges = bridged
        from_list = build_oracle(network, "auto", bridges)
        from_gen = build_oracle(network, "auto", (b for b in bridges))
        assert from_gen is not None
        assert from_gen.hubs == from_list.hubs
        assert from_gen.rows.tobytes() == from_list.rows.tobytes()


class TestHubOracle:
    @pytest.fixture(scope="class")
    def oracle(self, bridged):
        network, bridges = bridged
        return HubOracle.build(network, bridges)

    def test_covers_exactly_the_endpoints(self, bridged, oracle):
        network, bridges = bridged
        endpoints = {e for bridge in bridges for e in bridge}
        assert oracle.hubs == tuple(sorted(endpoints))
        for e in endpoints:
            assert len(oracle.dist_row(e)) == network.num_vertices
        outsider = next(x for x in range(network.num_vertices)
                        if x not in endpoints)
        with pytest.raises(KeyError):
            oracle.dist_row(outsider)

    def test_distances_exact_for_workload_pairs(self, bridged, oracle,
                                                targets):
        """Each ``dist`` row is the endpoint's exact SSSP and the
        predecessors derived from it are its tree -- the soundness claim
        the query processor relies on."""
        network, _ = bridged
        for endpoint in oracle.hubs:
            tree = sssp(network, endpoint)
            dist = oracle.dist_row(endpoint)
            preds = oracle.preds(endpoint)
            for x in targets:
                assert dist[x] == tree.dist.get(x, math.inf)
                if x != endpoint and x in tree.dist:
                    assert preds[x] == tree.pred[x]

    def test_derived_preds_equal_the_flat_kernel_on_every_cell(
            self, bridged):
        """Every reachable cell of every row: the derived predecessor
        is the one the flat kernel stores, cold and then memoised."""
        network, bridges = bridged
        oracle = HubOracle.build(network, bridges)
        for endpoint in oracle.hubs:
            search = FlatDijkstraSearch(network, endpoint)
            search.run_to_exhaustion()
            reached = [x for x in search.settled_order if x != endpoint]
            want = [search.pred[x] for x in reached]
            search.release()
            for _ in range(2):
                preds = oracle.preds(endpoint)
                assert [preds[x] for x in reached] == want, endpoint
            memo = oracle._preds[endpoint]
            assert len(memo) == network.num_vertices
            assert memo.itemsize == 4

    def test_bridge_valid_matches_domains(self, bridged, oracle, targets):
        """Table domains equal the dual-heap search's, so validity
        (both non-empty) and the path patch agree too."""
        network, bridges = bridged
        for u, v in bridges:
            ud, vd = oracle.domains(u, v, network.edge_weight(u, v),
                                    targets)
            ref = bridge_domains(network, u, v, targets, engine="dict")
            assert (ud, vd) == (ref.ud_star, ref.vd_star)
            assert bool(ud and vd) == bool(ref.ud_star and ref.vd_star)
            members = sorted(ud | vd)
            for endpoint, search in ((u, ref.search_u), (v, ref.search_v)):
                got, want = set(), set()
                oracle.collect_paths(endpoint, members, got)
                collect_path_vertices(search.pred, endpoint, members, want)
                assert got == want

    def test_payload_round_trip(self, bridged, oracle, targets):
        """A table rebuilt from a copy of its hubs and flat rows -- the
        payload an index file stores -- answers the same."""
        network, bridges = bridged
        back = HubOracle(list(oracle.hubs), array("d", oracle.rows),
                         network)
        assert back.hubs == oracle.hubs
        assert back.entry_count() == oracle.entry_count()
        assert back.rows.tobytes() == oracle.rows.tobytes()
        u, v = bridges[0]
        weight = network.edge_weight(u, v)
        assert (back.domains(u, v, weight, targets)
                == oracle.domains(u, v, weight, targets))

    def test_describe_mentions_kind_and_size(self, bridged, oracle):
        network, _ = bridged
        text = oracle.describe()
        assert "endpoint tree table" in text
        assert str(len(oracle.hubs)) in text
        assert "dist rows" in text and "pred" not in text
        assert oracle.entry_count() == (len(oracle.hubs)
                                        * network.num_vertices)
        assert oracle.row_bytes() == 8 * oracle.entry_count()

    def test_parallel_build_identical(self, bridged, oracle):
        network, bridges = bridged
        parallel = HubOracle.build(network, bridges, jobs=3)
        assert parallel.hubs == oracle.hubs
        assert parallel.rows.tobytes() == oracle.rows.tobytes()


class TestScreen:
    """Theorem 5 over memoised verdicts: :meth:`HubOracle.screen` is
    :meth:`HubOracle.domains` followed by the emptiness test, whatever
    the memo already holds."""

    @staticmethod
    def _expected(oracle, network, u, v, targets):
        ud, vd = oracle.domains(u, v, network.edge_weight(u, v), targets)
        return (ud, vd) if ud and vd else None

    def test_matches_domains_cold_and_warm(self, bridged, targets):
        network, bridges = bridged
        oracle = HubOracle.build(network, bridges)
        everyone = list(range(network.num_vertices))
        lists = [targets, targets[::-1], targets[3:9] + targets[:4],
                 targets[:1], [], everyone, targets + targets]
        valid = 0
        for target_list in lists + lists:  # cold, then warm
            for u, v in bridges:
                got = oracle.screen(u, v, network.edge_weight(u, v),
                                    target_list)
                assert got == self._expected(oracle, network, u, v,
                                             target_list), (u, v)
                valid += got is not None
        assert valid  # the fixture exercises both outcomes

    def test_one_vertex_sized_buffer_per_bridge(self, bridged, targets):
        network, bridges = bridged
        oracle = HubOracle.build(network, bridges)
        for _ in range(3):
            for u, v in bridges[:3]:
                oracle.screen(u, v, network.edge_weight(u, v), targets)
        assert sorted(key[:2] for key in oracle._verdicts) == bridges[:3]
        assert all(len(memo) == network.num_vertices
                   for memo in oracle._verdicts.values())


def _patched(oracle, network, hub, vertex, value):
    """A copy of ``oracle`` with one ``dist`` cell of one row
    overwritten."""
    cells = array("d", oracle.rows)
    cells[oracle.hubs.index(hub) * network.num_vertices + vertex] = value
    return HubOracle(oracle.hubs, cells, network, source="idx.bin",
                     section="ordist")


def tight_neighbours(network, row, x):
    """The neighbours ``u`` of ``x`` strictly below it with ``row[u] +
    w(u, x) == row[x]`` -- the candidates of a derived predecessor."""
    return [u for u, w in network.neighbors(x)
            if row[u] + w == row[x] and row[u] < row[x]]


def walk_corruption(value, row, x):
    """The corrupt cell for ``x``: ``value``, or for ``"off"`` a finite
    value that no neighbour reaches exactly."""
    return row[x] + 0.25 if value == "off" else value


class TestCorruptCells:
    """A bad cell raises IndexFormatError naming the file, the section
    and the endpoint where a query reads it -- never an IndexError, a
    negative-index wrap or a silently wrong domain."""

    @pytest.fixture(scope="class")
    def oracle(self, bridged):
        network, bridges = bridged
        return HubOracle.build(network, bridges)

    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf])
    def test_bad_distance(self, bridged, oracle, value):
        network, bridges = bridged
        u, v = bridges[0]
        x = next(x for x in range(network.num_vertices)
                 if x not in (u, v))
        bad = _patched(oracle, network, v, x, value)
        with pytest.raises(IndexFormatError,
                           match=rf"idx\.bin: section 'ordist', row of"
                                 rf" endpoint {v}: distance to vertex {x}"):
            bad.domains(u, v, network.edge_weight(u, v), [u, x])

    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf])
    def test_bad_single_cell(self, bridged, oracle, value):
        network, bridges = bridged
        hub = bridges[0][1]
        bad = _patched(oracle, network, hub, 3, value)
        assert oracle.distance(hub, 3) == oracle.dist_row(hub)[3]
        with pytest.raises(IndexFormatError,
                           match=rf"idx\.bin: section 'ordist', row of"
                                 rf" endpoint {hub}: distance to vertex 3"):
            bad.distance(hub, 3)

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_bad_cell_raises_on_every_screen(self, bridged, oracle,
                                             value):
        """With every other verdict of the bridge warm, the corrupt cell
        raises domains' message on the first screen that reads it and
        again on the next: it is never memoised."""
        network, bridges = bridged
        u, v = bridges[0]
        weight = network.edge_weight(u, v)
        x = next(x for x in range(network.num_vertices)
                 if x not in (u, v))
        bad = _patched(oracle, network, v, x, value)
        others = [y for y in range(network.num_vertices) if y != x]
        bad.screen(u, v, weight, others)
        with pytest.raises(IndexFormatError) as reference:
            bad.domains(u, v, weight, [u, x])
        for _ in range(2):
            with pytest.raises(IndexFormatError) as raised:
                bad.screen(u, v, weight, [u, x, v])
            assert str(raised.value) == str(reference.value)
        assert f"row of endpoint {v}: distance to vertex {x}" in str(
            reference.value)

    @pytest.mark.parametrize("where", ["member", "inner"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, "off"])
    def test_bad_cell_on_a_walk(self, bridged, oracle, value, where):
        """A corrupt ``dist`` cell on a vertex the tree walk passes
        through -- the member it starts from, or an inner path vertex
        whose child has no other tight neighbour -- raises naming the
        section and the hub, on the first walk and again on the next
        (never memoised), and never a KeyError or an IndexError."""
        network, bridges = bridged
        u = bridges[0][0]
        row = oracle.dist_row(u)
        x = max(range(network.num_vertices),
                key=lambda y: (row[y] < math.inf, row[y], y))
        chain = [x]
        while chain[-1] != u:
            chain.append(oracle.preds(u)[chain[-1]])
        if where == "member":
            y = x
        else:
            y = next(y for child, y in zip(chain, chain[1:-1])
                     if tight_neighbours(network, row, child) == [y])
        bad = _patched(oracle, network, u, y,
                       walk_corruption(value, row, y))
        for _ in range(2):
            with pytest.raises(IndexFormatError,
                               match=rf"idx\.bin: section 'ordist', row of"
                                     rf" endpoint {u}: vertex"):
                bad.collect_paths(u, [x], set())
        assert bad._preds[u][y] == -1
