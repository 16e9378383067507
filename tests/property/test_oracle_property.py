"""Property tests pinning the endpoint tree table to the dual heap.

With a table attached, the query processor answers every examined
bridge from it: ``UD*``/``VD*`` from the two endpoints' ``dist`` rows,
the path patch of a valid bridge from their ``pred`` rows.  Without
one (``oracle="none"``) it runs the dual-heap search per bridge, the
reference.  The two must agree on every domain pair and on every DPS
-- vertices and the ``b``/``bv`` measures -- under the flat and the
dict engine, on the networks where shortest-path trees are hardest to
pin down: the equal-weight ties, Euclidean and sub-Euclidean weights,
0/1e-12 twins and zero edges of ``test_settle_equivalence.py`` (each
with flyovers added), and a network whose query vertices partly cannot
reach any bridge endpoint.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.dps import DPSQuery
from repro.core.roadpart.bridges import find_bridges
from repro.core.roadpart.index import build_index
from repro.core.roadpart.query import roadpart_dps
from repro.datasets.synthetic import add_bridges, grid_network
from repro.graph.network import RoadNetwork
from repro.shortestpath import HubOracle
from repro.shortestpath.bidirectional import bridge_domains

from tests.property.test_settle_equivalence import KINDS, queries, \
    tie_networks

network_params = st.tuples(st.integers(4, 8), st.integers(4, 8),
                           st.integers(0, 30))

_cache = {}


def _make(columns, rows, seed):
    """A fuzzed bridged network, its detected bridges and the dict
    engine's reference domain sets over a fixed target slice."""
    key = (columns, rows, seed)
    if key not in _cache:
        base = grid_network(columns, rows, seed=seed, drop_rate=0.15)
        network, _ = add_bridges(base, 3, (2.0, 4.5), seed=seed + 1)
        bridges = sorted(find_bridges(network))
        targets = sorted(network.vertices())[::2]
        reference = {}
        for u, v in bridges:
            domains = bridge_domains(network, u, v, targets,
                                     engine="dict")
            reference[(u, v)] = (set(domains.ud_star),
                                 set(domains.vd_star))
            domains.release()
        _cache[key] = (network, bridges, targets, reference)
    return _cache[key]


@given(network_params)
@settings(max_examples=15, deadline=None)
def test_hub_oracle_matches_dict_engine(params):
    network, bridges, targets, reference = _make(*params)
    assume(bridges)
    oracle = HubOracle.build(network, bridges)
    assert set(oracle.hubs) == {e for bridge in bridges for e in bridge}
    for u, v in bridges:
        weight = network.edge_weight(u, v)
        assert (oracle.domains(u, v, weight, targets)
                == reference[(u, v)]), (u, v)


def _with_flyovers(network, data):
    """Add up to five long edges across the grid; each properly
    crosses grid edges, so the index treats it as a bridge.  Its weight
    is the Euclidean length or a whole number of grid steps, so some
    flyovers tie with grid routes."""
    coords = [(c.x, c.y) for c in network.coords]
    edges = [(e.u, e.v, e.weight) for e in network.edges()]
    cell = {}
    for v, (x, y) in enumerate(coords):
        cell.setdefault((round(x), round(y)), v)
    for _ in range(data.draw(st.integers(2, 5))):
        u = data.draw(st.integers(0, len(coords) - 1))
        dx, dy = data.draw(st.sampled_from([(2, 1), (3, 1), (1, 2),
                                            (2, -1), (3, 2)]))
        v = cell.get((round(coords[u][0]) + dx, round(coords[u][1]) + dy))
        if v is None or network.has_edge(u, v):
            continue
        length = math.dist(coords[u], coords[v])
        weight = data.draw(st.sampled_from([length,
                                            float(dx + abs(dy))]))
        edges.append((u, v, max(weight, length)))
    return RoadNetwork(coords, edges)


def _assert_table_matches_dual_heap(index, query):
    for engine in ("flat", "dict"):
        for examine_all in (False, True):
            options = {"engine": engine,
                       "examine_all_bridges": examine_all}
            table = roadpart_dps(index, query, **options)
            dual = roadpart_dps(index, query, oracle="none", **options)
            assert table.vertices == dual.vertices, options
            assert ((table.stats["b"], table.stats["bv"])
                    == (dual.stats["b"], dual.stats["bv"])), options
            assert table.stats["oracle_hits"] == table.stats["b"]
            assert table.stats["oracle_fallbacks"] == 0


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_table_roadpart_matches_dual_heap(kind, data):
    network = _with_flyovers(data.draw(tie_networks(kind)), data)
    index = build_index(network, 4, oracle="auto")
    assume(index.oracle is not None)
    _assert_table_matches_dual_heap(index, queries(network, data))


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_table_roadpart_matches_with_unreachable_vertices(data):
    """Two components, bridges only in the second: query vertices in
    the first reach no endpoint (``+inf`` table cells)."""
    seed = data.draw(st.integers(0, 50))
    left = grid_network(5, 4, seed=seed)
    right, added = add_bridges(grid_network(6, 5, seed=seed + 1), 3,
                               (1.5, 3.5), seed=seed + 2)
    assume(added)
    n = left.num_vertices
    coords = ([(c.x, c.y) for c in left.coords]
              + [(c.x + 100.0, c.y) for c in right.coords])
    edges = ([(e.u, e.v, e.weight) for e in left.edges()]
             + [(e.u + n, e.v + n, e.weight) for e in right.edges()])
    network = RoadNetwork(coords, edges)
    index = build_index(network, 4, oracle="auto")
    assert index.oracle is not None
    assert all(e >= n for e in index.oracle.hubs)
    picks = st.sets(st.integers(0, network.num_vertices - 1),
                    min_size=2, max_size=8)
    vertices = data.draw(picks) | {data.draw(st.integers(0, n - 1))}
    _assert_table_matches_dual_heap(index, DPSQuery.q_query(vertices))
