"""Property tests pinning the vectorized engine to the dict engine.

The bucketed numpy kernel's contract is *result equivalence*, not the
flat kernel's operation equivalence: bit-identical distances (the same
float64 candidate multiset is minimized, in a different order),
bit-identical canonical predecessors (argmin over ``(dist[u], u)``
among neighbours whose relaxation is exact), and identical settled-set
closures after every bulk run.  Settle order *within* a distance tie
and the operation counters are bucket-level and deliberately not
compared -- see :mod:`repro.shortestpath.vec`.

The whole module skips on a stdlib-only install (no numpy, or
``REPRO_VEC_DISABLE`` set); ``tests/shortestpath/test_vec.py`` covers
that degradation path instead.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shortestpath.bidirectional import bridge_domains
from repro.shortestpath.dijkstra import DijkstraSearch
from repro.shortestpath.paths import reconstruct_path
from repro.vec.backend import has_backend

from tests.property.test_dijkstra_property import connected_networks

pytestmark = pytest.mark.skipif(
    not has_backend(), reason="no array backend (numpy) in this install")


def _vec_search(network, source, allowed=None):
    from repro.shortestpath.vec import VecDijkstraSearch
    return VecDijkstraSearch(network, source, allowed=allowed)


def _assert_result_equivalent(vec, ref):
    assert set(vec.dist) == set(ref.dist)
    for v in ref.dist:
        # Bit-identical, not isclose: both engines minimize the same
        # candidate multiset with the same IEEE adds.
        assert vec.dist[v] == ref.dist[v]
    for v in ref.dist:
        assert (reconstruct_path(vec.pred, vec.source, v)
                == reconstruct_path(ref.pred, ref.source, v))


@given(connected_networks(), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_full_sweep_equivalence(network, s_raw):
    s = s_raw % network.num_vertices
    vec = _vec_search(network, s)
    ref = DijkstraSearch(network, s)
    vec.run_to_exhaustion()
    ref.run_to_exhaustion()
    _assert_result_equivalent(vec, ref)


@given(connected_networks(), st.integers(0, 10_000),
       st.lists(st.integers(0, 10_000), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_truncated_then_resumed_equivalence(network, s_raw, t_raw):
    """BL-E's shape: settle a target set, then resume out to 2r.  The
    settled *closures* must match after both bulk runs -- that is what
    BL-E's ``frozenset(search.dist)`` consumes."""
    s = s_raw % network.num_vertices
    targets = [t % network.num_vertices for t in t_raw]
    vec = _vec_search(network, s)
    ref = DijkstraSearch(network, s)
    assert (vec.run_until_settled(targets)
            == ref.run_until_settled(targets))
    _assert_result_equivalent(vec, ref)
    radius = 2.0 * max(vec.dist[t] for t in targets)
    vec.run_until_beyond(radius)
    ref.run_until_beyond(radius)
    _assert_result_equivalent(vec, ref)
    assert vec.is_exhausted() == ref.is_exhausted()


@given(connected_networks(), st.integers(0, 10_000),
       st.sets(st.integers(0, 10_000), max_size=15))
@settings(max_examples=30, deadline=None)
def test_allowed_restriction_equivalence(network, s_raw, blocked_raw):
    s = s_raw % network.num_vertices
    blocked = {b % network.num_vertices for b in blocked_raw} - {s}
    allowed = set(network.vertices()) - blocked
    vec = _vec_search(network, s, allowed=allowed)
    ref = DijkstraSearch(network, s, allowed=allowed)
    vec.run_to_exhaustion()
    ref.run_to_exhaustion()
    _assert_result_equivalent(vec, ref)


@given(connected_networks(), st.integers(0, 10_000),
       st.lists(st.integers(0, 10_000), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_bridge_domains_equivalence(network, e_raw, t_raw):
    """UD*/VD* classification over an arbitrary edge as the 'bridge':
    the vec path must reproduce the dict engine's sets exactly
    (including the elif first-match-wins tie rule)."""
    edges = list(network.edges())
    edge = edges[e_raw % len(edges)]
    targets = [t % network.num_vertices for t in t_raw]
    ref = bridge_domains(network, edge.u, edge.v, targets, engine="dict")
    vec = bridge_domains(network, edge.u, edge.v, targets, engine="numpy")
    assert vec.ud_star == ref.ud_star
    assert vec.vd_star == ref.vd_star
    # The attached searches must expose the same settled distances, so
    # the caller-side pred-chain patching walks identical paths.
    for x in targets:
        assert (vec.search_u.dist.get(x) == ref.search_u.dist.get(x))
        assert (vec.search_v.dist.get(x) == ref.search_v.dist.get(x))
    vec.release()
    ref.release()


@given(connected_networks(), st.integers(0, 10_000),
       st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_ppsp_equivalence(network, s_raw, t_raw):
    """The forward-only vec PPSP agrees with the bidirectional dict
    engine up to one path's accumulated rounding (the two sum the same
    edge weights in different orders), with an identical shortest path
    whenever the optimum is unique."""
    from repro.shortestpath.bidirectional import bidirectional_ppsp
    s = s_raw % network.num_vertices
    t = t_raw % network.num_vertices
    ref_dist, ref_path = bidirectional_ppsp(network, s, t, engine="dict")
    vec_dist, vec_path = bidirectional_ppsp(network, s, t, engine="numpy")
    assert math.isclose(vec_dist, ref_dist, rel_tol=1e-9, abs_tol=1e-12)
    assert vec_path[0] == s and vec_path[-1] == t
    total = sum(network.edge_weight(u, v)
                for u, v in zip(vec_path, vec_path[1:]))
    assert math.isclose(total, vec_dist, rel_tol=1e-9, abs_tol=1e-12)


def _bridged_fixture(seed):
    from repro.datasets.synthetic import add_bridges, grid_network
    network, bridges = add_bridges(grid_network(12, 10, seed=seed), 6,
                                   (2.0, 5.0), seed=seed + 1)
    return network, bridges


@pytest.mark.parametrize("seed", [1, 2])
def test_dps_entry_points_byte_identical(seed):
    """engine="numpy" end to end: every DPS algorithm returns exactly
    the vertices the flat engine returns (DPS output identity is the
    acceptance bar; speed is the only difference)."""
    from repro.core.ble import bl_efficiency
    from repro.core.blq import bl_quality
    from repro.core.dps import DPSQuery
    from repro.core.hull import convex_hull_dps
    from repro.core.roadpart.index import build_index
    from repro.core.roadpart.query import roadpart_dps
    from repro.datasets.queries import window_query
    network, _ = _bridged_fixture(seed)
    query = DPSQuery.q_query(window_query(network, 0.25, seed=seed))
    index = build_index(network, 6, engine="numpy")
    base = build_index(network, 6, engine="flat")
    assert index.regions.region_of == base.regions.region_of
    for fn in (bl_efficiency, bl_quality, convex_hull_dps):
        assert (fn(network, query, engine="numpy").vertices
                == fn(network, query, engine="flat").vertices)
    assert (roadpart_dps(index, query, engine="numpy").vertices
            == roadpart_dps(base, query, engine="flat").vertices)
