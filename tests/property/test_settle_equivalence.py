"""Property tests pinning the goal-directed settle kernel to the reference.

BL-Q and the convex hull method collect one canonical shortest path per
pair through :func:`repro.shortestpath.settle.settle_targets`.  Under the
default engine that is the goal-directed (A*) kernel; under
``engine="dict"`` it is one Dijkstra search per source.  The answers
must be the same vertex sets, so the networks here are the ones where
canonical predecessors are hardest to get right:

- ``equal``: grids whose weights are all equal, so equal-length ties
  are everywhere (a unit grid with weight 1 also has no slack in ``h``;
  weight 0.5 makes the metric ratio 2);
- ``euclidean``: jittered coordinates with weights exactly Euclidean,
  so ``h`` has no slack beyond its rounding margin;
- ``below``: some weights below Euclidean length (ratio > 1), so ``h``
  is scaled down;
- ``twins``: duplicate-coordinate twins joined by 0 and 1e-12 edges,
  copying some of their original's edges;
- ``zero``: a zero-weight edge between distinct points, so ``κ = 0``.

Diagonals give the grids triangles, hence vertices with several tied
predecessors.

The same families pin the forked rounds to the serial loop: vertex
sets, rounds, every counter and the error text must not depend on how
many processes ran the rounds.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ble import bl_efficiency
from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.core.hull import convex_hull_dps
from repro import forkpool
from repro.forkpool import fork_available
from repro.graph.network import RoadNetwork
from repro.obs import QueryStats
from repro.shortestpath import settle

KINDS = ("equal", "euclidean", "below", "twins", "zero")


@st.composite
def tie_networks(draw, kind):
    cols = draw(st.integers(3, 7))
    rows = draw(st.integers(3, 7))
    jitter = kind in ("euclidean", "below")
    coords = []
    for j in range(rows):
        for i in range(cols):
            dx = draw(st.floats(-0.3, 0.3)) if jitter else 0.0
            dy = draw(st.floats(-0.3, 0.3)) if jitter else 0.0
            coords.append((i + dx, j + dy))
    unit = draw(st.sampled_from([1.0, 0.5])) if kind == "equal" else 1.0

    def weight(u, v):
        if kind in ("euclidean", "below"):
            return math.dist(coords[u], coords[v])
        return unit

    pairs = []
    for j in range(rows):
        for i in range(cols):
            v = j * cols + i
            if i + 1 < cols:
                pairs.append((v, v + 1))
            if j + 1 < rows:
                pairs.append((v, v + cols))
    for j in range(rows - 1):
        for i in range(cols - 1):
            if draw(st.booleans()):
                v = j * cols + i
                pairs.append((v, v + cols + 1))
    edges = []
    for u, v in pairs:
        w = weight(u, v)
        if v - u == cols + 1 and not jitter:
            # A diagonal as long as the two grid steps it spans: one
            # more tied route, not a shortcut.
            w = 2 * unit
        if kind == "below" and (not edges or draw(st.booleans())):
            w *= draw(st.floats(0.3, 0.95))
        edges.append((u, v, w))
    if kind == "zero":
        k = draw(st.integers(0, len(edges) - 1))
        u, v, _ = edges[k]
        edges[k] = (u, v, 0.0)
    if kind == "twins":
        n = len(coords)
        for original in sorted(draw(st.sets(st.integers(0, n - 1),
                                            min_size=1, max_size=4))):
            twin = len(coords)
            coords.append(coords[original])
            edges.append((original, twin, draw(st.sampled_from([0.0,
                                                                1e-12]))))
            # Each of the original's edges stays, moves to the twin or
            # is copied to it: a moved edge can make the twin (the
            # larger id) the vertex a shortest path enters by.
            for k in range(len(pairs)):
                u, v, w = edges[k]
                if original in (u, v):
                    other = v if u == original else u
                    fate = draw(st.sampled_from(["stay", "move", "copy"]))
                    if fate == "move":
                        edges[k] = (twin, other, w)
                    elif fate == "copy":
                        edges.append((twin, other, w))
    return RoadNetwork(coords, edges)


def queries(network, data):
    n = network.num_vertices
    picks = st.sets(st.integers(0, n - 1), min_size=1, max_size=8)
    if data.draw(st.booleans()):
        return DPSQuery.q_query(data.draw(picks))
    return DPSQuery.st_query(data.draw(picks), data.draw(picks))


def _same(run, network, query):
    """The default engine and the dict reference give the same vertex
    set and round count (or both raise the same error type)."""
    outcomes = []
    for engine in ("flat", "dict"):
        try:
            result = run(network, query, engine)
        except ValueError as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append((result.vertices, result.stats["sssp_rounds"]))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_blq_matches_reference(kind, data):
    network = data.draw(tie_networks(kind))
    _same(lambda net, q, e: bl_quality(net, q, engine=e), network,
          queries(network, data))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_hull_matches_reference(kind, data):
    network = data.draw(tie_networks(kind))
    _same(lambda net, q, e: convex_hull_dps(net, q, engine=e), network,
          queries(network, data))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_refined_hull_matches_reference(kind, data):
    network = data.draw(tie_networks(kind))
    query = queries(network, data)
    base = bl_efficiency(network, query, engine="dict")
    _same(lambda net, q, e: convex_hull_dps(net, q, base=base, engine=e),
          network, query)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_every_family_has_its_property(kind, data):
    network = data.draw(tie_networks(kind))
    scale = network.lower_bound_scale()
    if kind == "zero":
        assert scale == 0.0
    elif kind == "below":
        assert 0.0 < scale < 1.0 - 2.0 ** -20
    else:
        assert scale > 0.0


def _forked_or_serial(run, network, query, work):
    """One run with ``FORK_SETTLES = work`` over two processes: its
    vertices, rounds and counters, or its error text."""
    stats = QueryStats()
    with mock.patch.object(settle, "FORK_SETTLES", work), \
            mock.patch.object(forkpool, "usable_cpus", lambda: 2):
        try:
            result = run(network, query, stats)
        except ValueError as exc:
            return "error", str(exc)
    return (result.vertices, result.stats["sssp_rounds"],
            stats.counters.as_dict())


@pytest.mark.skipif(not fork_available(),
                    reason="no fork start method on this platform")
@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_forked_rounds_match_serial(kind, data):
    network = data.draw(tie_networks(kind))
    query = queries(network, data)
    method = data.draw(st.sampled_from(["blq", "hull", "refined"]))
    engine = data.draw(st.sampled_from(["flat", "dict"]))
    base = (bl_efficiency(network, query, engine="dict")
            if method == "refined" else None)

    def run(net, q, stats):
        if method == "blq":
            return bl_quality(net, q, stats=stats, engine=engine)
        return convex_hull_dps(net, q, base=base, stats=stats,
                               engine=engine)

    assert (_forked_or_serial(run, network, query, 0)
            == _forked_or_serial(run, network, query, math.inf))
