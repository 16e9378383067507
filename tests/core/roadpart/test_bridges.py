"""Unit tests for bridge finding, classification and pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.roadpart.bridges import (
    BridgeLabelBits,
    classify_bridge,
    find_bridges,
    theorem7_survivors,
)
from repro.core.roadpart.regions import RegionSet
from repro.core.roadpart.window import tight_window
from repro.datasets.synthetic import add_bridges, grid_network


class TestFindBridges:
    def test_planar_grid_has_none(self, grid5):
        assert find_bridges(grid5) == frozenset()

    def test_single_flyover_marks_crossing_pair(self, bridge_network):
        bridges = find_bridges(bridge_network)
        assert (6, 13) in bridges
        # The flyover from (1,1) to (3,2) crosses a grid edge;
        # each crossing partner is marked too.
        assert len(bridges) >= 2
        for u, v in bridges - {(6, 13)}:
            assert bridge_network.has_edge(u, v)

    def test_injected_bridges_all_found(self):
        base = grid_network(18, 18, seed=51)
        net, injected = add_bridges(base, 9, (2.0, 5.0), seed=52)
        bridges = find_bridges(net)
        for key in injected:
            assert key in bridges

    def test_touching_edges_not_bridges(self, grid5):
        # Grid edges meet only at shared vertices: never "proper" crossings.
        assert not find_bridges(grid5)


class TestClassify:
    WINDOW = [(3, 4), (2, 3)]

    def test_interior(self):
        cls = classify_bridge(((3, 3), (2, 2)), ((4, 4), (3, 3)),
                              self.WINDOW)
        assert cls.kind == "interior"

    def test_exterior(self):
        cls = classify_bridge(((6, 6), (5, 5)), ((5, 5), (6, 6)),
                              self.WINDOW)
        assert cls.kind == "exterior"
        assert cls.outside_dims == (0, 1)

    def test_cut_case1_opposite_sides(self):
        cls = classify_bridge(((1, 1), (2, 2)), ((6, 6), (2, 2)),
                              self.WINDOW)
        assert cls.kind == "cut"
        assert 0 in cls.cut_dims

    def test_cut_case2_inside_to_outside(self):
        cls = classify_bridge(((3, 3), (2, 2)), ((6, 6), (2, 2)),
                              self.WINDOW)
        assert cls.kind == "cut"
        assert cls.cut_dims == (0,)

    def test_mixed_cut_and_outside_dims(self):
        # Dim 0: cut (inside/outside); dim 1: both strictly above.
        cls = classify_bridge(((3, 3), (5, 5)), ((6, 6), (5, 5)),
                              self.WINDOW)
        assert cls.kind == "cut"
        assert cls.cut_dims == (0,)
        assert cls.outside_dims == (1,)


def _interval(low_range, max_width):
    return st.tuples(st.integers(*low_range), st.integers(0, max_width)) \
        .map(lambda lw: (lw[0], lw[0] + lw[1]))


@st.composite
def _bridges_and_window(draw):
    """``count`` bridges ``(2i, 2i + 1)`` whose endpoints each sit in a
    region of their own, labelled over zones 1..9, plus one spare
    vertex (so the region set has dimensions even with no bridges),
    and a window whose labels may lie partly or wholly outside the
    stored zones."""
    dims = draw(st.integers(1, 5))
    count = draw(st.sampled_from([0, 1, draw(st.integers(2, 30))]))
    vectors = draw(st.lists(
        st.tuples(*[_interval((1, 7), 2) for _ in range(dims)]),
        min_size=2 * count + 1, max_size=2 * count + 1))
    window = draw(st.lists(_interval((-3, 12), 5), min_size=dims,
                           max_size=dims))
    regions = RegionSet(list(range(len(vectors))), vectors)
    return [(2 * i, 2 * i + 1) for i in range(count)], regions, window


def _reference_classes(bridges, regions, window):
    kinds = {key: classify_bridge(regions.vector_of_vertex(key[0]),
                                  regions.vector_of_vertex(key[1]),
                                  window).kind
             for key in bridges}
    return ([key for key in sorted(bridges) if kinds[key] == "cut"],
            [key for key in sorted(bridges) if kinds[key] == "exterior"])


class TestBridgeLabelBits:
    """Observation 1 from endpoint-label bitsets must sort every bridge
    exactly as the per-bridge reference :func:`classify_bridge` does."""

    @given(_bridges_and_window())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        bridges, regions, window = case
        assert (BridgeLabelBits(bridges, regions).classify(window)
                == _reference_classes(bridges, regions, window))

    def test_single_bridge_each_kind(self):
        regions = RegionSet([0, 1], [((3, 3), (2, 2)), ((6, 6), (2, 2))])
        bits = BridgeLabelBits([(0, 1)], regions)
        assert bits.classify([(3, 6), (2, 3)]) == ([], [])       # interior
        assert bits.classify([(3, 4), (2, 3)]) == ([(0, 1)], [])  # cut
        assert bits.classify([(7, 9), (2, 3)]) == ([], [(0, 1)])  # exterior
        assert bits.classify([(-5, 0), (2, 3)]) == ([], [(0, 1)])

    def test_no_bridges(self):
        regions = RegionSet([0], [((1, 2),)])
        assert BridgeLabelBits([], regions).classify([(0, 5)]) == ([], [])

    def test_index_windows_match_reference(self, medium_index):
        regions = medium_index.regions
        bridges = medium_index.bridges
        for rids in ([0], [0, 5], [3, 40, 77],
                     list(range(0, regions.region_count, 9))):
            window = tight_window([regions.vectors[r] for r in rids])
            assert (medium_index.bridge_bits.classify(window)
                    == _reference_classes(bridges, regions, window))


class TestTheorem7:
    def _cls(self, cut_dims, outside_dims):
        from repro.core.roadpart.bridges import BridgeClassification
        return BridgeClassification("cut", cut_dims=tuple(cut_dims),
                                    outside_dims=tuple(outside_dims))

    def test_prunes_bridge_behind_earlier_boundary(self):
        # Bridge crosses dim 1's boundary but sits wholly outside dim 0's:
        # with dimension order, dim 0 comes first → pruned.
        bridges = {(0, 1): self._cls([1], [0])}
        assert theorem7_survivors(bridges, 2, order="dimension") == []

    def test_keeps_bridge_crossing_first_boundary(self):
        bridges = {(0, 1): self._cls([0], [1])}
        assert theorem7_survivors(bridges, 2, order="dimension") == [(0, 1)]

    def test_load_order_can_change_outcome(self):
        # Two bridges cross dim 0; one bridge crosses dim 1 and is outside
        # dim 0.  Load order puts dim 1 (1 crossing) before dim 0 (2), so
        # the dim-1 bridge is examined first-hand and survives.
        bridges = {
            (0, 1): self._cls([0], []),
            (2, 3): self._cls([0], []),
            (4, 5): self._cls([1], [0]),
        }
        assert (4, 5) not in theorem7_survivors(bridges, 2, "dimension")
        assert (4, 5) in theorem7_survivors(bridges, 2, "load")

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            theorem7_survivors({}, 2, order="chaos")

    def test_deterministic_output_order(self):
        bridges = {(3, 9): self._cls([0], []),
                   (1, 2): self._cls([0], [])}
        assert theorem7_survivors(bridges, 1) == [(1, 2), (3, 9)]
