"""Property tests pinning the endpoint tree table to the dual heap.

With a table attached, the query processor answers every examined
bridge from it: ``UD*``/``VD*`` from the two endpoints' ``dist`` rows,
the path patch of a valid bridge from the predecessors derived from
those rows.  Without one (``oracle="none"``) it runs the dual-heap
search per bridge, the reference.  The two must agree on every domain
pair and on every DPS -- vertices and the ``b``/``bv`` measures --
under the flat and the dict engine, on the networks where
shortest-path trees are hardest to pin down: the equal-weight ties,
Euclidean and sub-Euclidean weights, 0/1e-12 twins and zero edges of
``test_settle_equivalence.py`` (each with flyovers added), and a
network whose query vertices partly cannot reach any bridge endpoint.
Every derived predecessor must equal the flat kernel's.  A zero-weight
edge can be absorbed by a relaxation, so ``oracle="auto"`` attaches no
table to such a network (RoadPart answers with the dual heap) and
``HubOracle.build`` refuses it; 1e-12 twin edges stay above
``ulp(2W)`` on these grids and keep their table.

The query processor screens each examined bridge with
:meth:`HubOracle.screen` (Theorem 5 over memoised verdicts); it must
answer exactly as :meth:`HubOracle.domains` followed by the emptiness
test, with the memo cold or warm, on dense bridge clusters (flyovers
that cross each other and share endpoints, integer weights so that
domains tie) and with targets that cannot reach a bridge at all.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.dps import DPSQuery
from repro.core.roadpart.bridges import find_bridges
from repro.core.roadpart.index import build_index
from repro.core.roadpart.query import RoadPartQueryProcessor, roadpart_dps
from repro.datasets.synthetic import add_bridges, grid_network
from repro.graph.network import RoadNetwork
from repro.shortestpath import HubOracle
from repro.shortestpath.bidirectional import bridge_domains
from repro.shortestpath.flat import FlatDijkstraSearch
from repro.shortestpath.oracle import table_obstacle

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


def _has_zero_edge(network):
    return min(edge.weight for edge in network.edges()) == 0.0


def _assert_refused(network, bridges):
    """The absorption policy on a network with a zero-weight edge:
    ``auto`` attaches no table, a direct build raises naming it."""
    assert table_obstacle(network) is not None
    assert build_index(network, 4, bridges=frozenset(bridges),
                       oracle="auto").oracle is None
    with pytest.raises(ValueError, match="absorb"):
        HubOracle.build(network, bridges)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_table_roadpart_matches_dual_heap(kind, data):
    network = _with_flyovers(data.draw(tie_networks(kind)), data)
    index = build_index(network, 4, oracle="auto")
    assume(index.bridges)
    if kind == "zero" or _has_zero_edge(network):
        assert kind in ("twins", "zero") and _has_zero_edge(network)
        assert index.oracle is None
        with pytest.raises(ValueError, match="absorb"):
            HubOracle.build(network, sorted(index.bridges))
        return
    assert index.oracle is not None
    _assert_table_matches_dual_heap(index, queries(network, data))


def _assert_preds_match_flat_kernel(network, table):
    """Every reachable cell of every row: the derived predecessor is
    the one the flat kernel stores."""
    for hub in table.hubs:
        search = FlatDijkstraSearch(network, hub)
        search.run_to_exhaustion()
        preds = table.preds(hub)
        for x in search.settled_order[1:]:
            assert preds[x] == search.pred[x], (hub, x)
        search.release()


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_derived_preds_match_flat_kernel(kind, data):
    network = _with_flyovers(data.draw(tie_networks(kind)), data)
    bridges = sorted(find_bridges(network))
    assume(bridges)
    if _has_zero_edge(network):
        _assert_refused(network, bridges)
        return
    assert kind != "zero" and table_obstacle(network) is None
    _assert_preds_match_flat_kernel(network,
                                    HubOracle.build(network, bridges))


def _two_components(seed):
    """Two grids side by side, flyovers only in the second: the first
    grid's vertices reach no bridge endpoint (``+inf`` table cells).
    Returns the network and the first grid's vertex count, or
    ``(None, 0)`` when no flyover was placed."""
    left = grid_network(5, 4, seed=seed)
    right, added = add_bridges(grid_network(6, 5, seed=seed + 1), 3,
                               (1.5, 3.5), seed=seed + 2)
    if not added:
        return None, 0
    n = left.num_vertices
    coords = ([(c.x, c.y) for c in left.coords]
              + [(c.x + 100.0, c.y) for c in right.coords])
    edges = ([(e.u, e.v, e.weight) for e in left.edges()]
             + [(e.u + n, e.v + n, e.weight) for e in right.edges()])
    return RoadNetwork(coords, edges), n


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_table_roadpart_matches_with_unreachable_vertices(data):
    """Two components, bridges only in the second: query vertices in
    the first reach no endpoint (``+inf`` table cells)."""
    network, n = _two_components(data.draw(st.integers(0, 50)))
    assume(network is not None)
    index = build_index(network, 4, oracle="auto")
    assert index.oracle is not None
    assert all(e >= n for e in index.oracle.hubs)
    picks = st.sets(st.integers(0, network.num_vertices - 1),
                    min_size=2, max_size=8)
    vertices = data.draw(picks) | {data.draw(st.integers(0, n - 1))}
    _assert_table_matches_dual_heap(index, DPSQuery.q_query(vertices))


#: Flyover offsets of a cluster (each crosses the unit grid properly).
_OFFSETS = ((2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))


@st.composite
def bridge_clusters(draw):
    """A unit grid with integer weights and one to three dense clusters
    of flyovers.  Each cluster fans out from one anchor vertex (the
    flyovers share that endpoint), and each fan edge may get its mirror
    image, which crosses it.  A flyover weighs the Manhattan length of
    its offset (tying with grid routes) or the ceiling of its Euclidean
    length, so domains tie exactly and no edge is below its length."""
    cols = draw(st.integers(6, 9))
    rows = draw(st.integers(6, 9))
    coords = [(float(i), float(j)) for j in range(rows)
              for i in range(cols)]
    edges = {}
    for j in range(rows):
        for i in range(cols):
            v = j * cols + i
            for w, ok in ((v + 1, i + 1 < cols), (v + cols, j + 1 < rows)):
                if ok:
                    edges[(v, w)] = float(draw(st.sampled_from([1, 1, 2])))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, cols - 4))
        j = draw(st.integers(0, rows - 4))
        fan = draw(st.lists(st.sampled_from(_OFFSETS), min_size=2,
                            max_size=4, unique=True))
        for dx, dy in fan:
            choices = [dx + dy, math.ceil(math.hypot(dx, dy))]
            ends = [((i, j), (i + dx, j + dy))]
            if draw(st.booleans()):
                ends.append(((i + dx, j), (i, j + dy)))  # its mirror
            for (ai, aj), (bi, bj) in ends:
                a, b = aj * cols + ai, bj * cols + bi
                edges[(min(a, b), max(a, b))] = float(
                    draw(st.sampled_from(choices)))
    return RoadNetwork(coords, [(u, v, w) for (u, v), w in edges.items()])


def _target_lists(data, n, reach=None):
    """Target lists sharing one table: random lists (repeats allowed,
    empty and single-vertex lists included), the first reversed, and an
    overlap of the first two -- so later lists read a partly warm
    memo.  ``reach`` adds one vertex from ``range(reach)`` to each."""
    picks = st.lists(st.integers(0, n - 1), min_size=0, max_size=25)
    lists = [data.draw(picks) for _ in range(data.draw(st.integers(1, 3)))]
    lists.append(lists[0][::-1])
    lists.append(lists[0][len(lists[0]) // 2:] + lists[-2][:5])
    if reach:
        lists = [t + [data.draw(st.integers(0, reach - 1))] for t in lists]
    return lists


def _assert_screen_matches_domains(network, bridges, target_lists):
    table = HubOracle.build(network, bridges)
    reference = HubOracle.build(network, bridges)
    for targets in target_lists + target_lists:  # cold, then warm
        for u, v in bridges:
            weight = network.edge_weight(u, v)
            ud, vd = reference.domains(u, v, weight, targets)
            assert (table.screen(u, v, weight, targets)
                    == ((ud, vd) if ud and vd else None)), (u, v, targets)
    n = network.num_vertices
    assert all(len(memo) == n for memo in table._verdicts.values())
    assert len(table._verdicts) <= len(bridges)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_derived_preds_match_flat_kernel_on_bridge_clusters(data):
    network = data.draw(bridge_clusters())
    bridges = sorted(find_bridges(network))
    assume(bridges)
    _assert_preds_match_flat_kernel(network,
                                    HubOracle.build(network, bridges))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_screen_matches_domains_on_bridge_clusters(data):
    network = data.draw(bridge_clusters())
    bridges = sorted(find_bridges(network))
    assume(bridges)
    _assert_screen_matches_domains(
        network, bridges, _target_lists(data, network.num_vertices))


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_screen_matches_domains_with_unreachable_targets(data):
    network, n = _two_components(data.draw(st.integers(0, 50)))
    assume(network is not None)
    bridges = sorted(find_bridges(network))
    assert bridges and all(e >= n for bridge in bridges for e in bridge)
    _assert_screen_matches_domains(
        network, bridges,
        _target_lists(data, network.num_vertices, reach=n))


#: Processor options whose bridge handling differs from the default.
OPTION_SETS = ({}, {"prune_theorem7": True},
               {"prune_theorem7": True, "cut_pair_order": "dimension"},
               {"examine_all_bridges": True}, {"window_mode": "loose"})


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_option_sets_match_dual_heap_on_bridge_clusters(data):
    """Table answers (memo warming across queries and option sets)
    equal the dual heap's, vertices and every stats field, for Q- and
    S/T-queries."""
    network = data.draw(bridge_clusters())
    index = build_index(network, 4, oracle="auto")
    assume(index.oracle is not None)
    n = network.num_vertices
    # Small sets: their windows leave bridges cut or exterior.
    picks = st.sets(st.integers(0, n - 1), min_size=1, max_size=6)
    query_list = [DPSQuery.q_query(data.draw(picks)),
                  DPSQuery.q_query(data.draw(picks)),
                  DPSQuery.st_query(data.draw(picks), data.draw(picks))]
    for options in OPTION_SETS:
        table = RoadPartQueryProcessor(index, **options)
        dual = RoadPartQueryProcessor(index, oracle="none", **options)
        for query in query_list:
            got = table.query(query)
            want = dual.query(query)
            assert got.vertices == want.vertices, options
            assert got.stats == dict(want.stats, oracle_hits=want.stats["b"],
                                     oracle_fallbacks=0), options
