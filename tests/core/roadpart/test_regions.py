"""Unit tests for regions and region splitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.roadpart.regions import RegionBuilder, RegionSet
from repro.core.roadpart.window import region_in_window, tight_window


class TestRegionBuilder:
    def test_single_round(self):
        builder = RegionBuilder(4)
        builder.apply_round([(1, 1), (1, 2), (1, 1), (2, 2)])
        regions = builder.finish()
        assert regions.region_count == 3
        assert regions.region_of[0] == regions.region_of[2]
        assert regions.region_of[0] != regions.region_of[1]

    def test_splitting_across_rounds(self):
        # Fig. 5: a region from round 1 splits when round 2 disagrees.
        builder = RegionBuilder(4)
        builder.apply_round([(1, 1), (1, 1), (1, 1), (2, 2)])
        assert builder.current_region_count == 2
        builder.apply_round([(3, 3), (3, 3), (4, 4), (3, 3)])
        regions = builder.finish()
        assert regions.region_count == 3
        assert regions.vector_of_vertex(0) == ((1, 1), (3, 3))
        assert regions.vector_of_vertex(2) == ((1, 1), (4, 4))
        assert regions.vector_of_vertex(3) == ((2, 2), (3, 3))

    def test_no_spurious_merge(self):
        # Vertices separated in round 1 stay separated even when round 2
        # agrees: region = equality on the FULL vector.
        builder = RegionBuilder(2)
        builder.apply_round([(1, 1), (2, 2)])
        builder.apply_round([(5, 5), (5, 5)])
        assert builder.finish().region_count == 2

    def test_wrong_label_count_rejected(self):
        builder = RegionBuilder(3)
        with pytest.raises(ValueError):
            builder.apply_round([(1, 1)])

    def test_finish_requires_a_round(self):
        with pytest.raises(ValueError):
            RegionBuilder(2).finish()

    def test_rounds_applied_counter(self):
        builder = RegionBuilder(2)
        assert builder.rounds_applied == 0
        builder.apply_round([(1, 1), (1, 1)])
        assert builder.rounds_applied == 1


class TestRegionSet:
    def _simple(self):
        return RegionSet([0, 0, 1, 2, 1],
                         [((1, 1),), ((2, 3),), ((4, 4),)])

    def test_members(self):
        rs = self._simple()
        assert rs.members[0] == [0, 1]
        assert rs.members[1] == [2, 4]
        assert rs.members[2] == [3]

    def test_max_region_size(self):
        assert self._simple().max_region_size() == 2

    def test_dimensions(self):
        assert self._simple().dimensions == 1

    def test_regions_of_vertices(self):
        rs = self._simple()
        assert rs.regions_of_vertices([0, 1, 4]) == [0, 1]
        assert rs.regions_of_vertices([3]) == [2]

    def test_vector_of_vertex(self):
        assert self._simple().vector_of_vertex(3) == ((4, 4),)


def _interval(low_range, max_width):
    return st.tuples(st.integers(*low_range), st.integers(0, max_width)) \
        .map(lambda lw: (lw[0], lw[0] + lw[1]))


@st.composite
def _vectors_and_window(draw):
    """Region vectors over zones 1..9 and a window whose labels may lie
    partly or wholly outside the stored zones."""
    dims = draw(st.integers(1, 5))
    vectors = draw(st.lists(
        st.tuples(*[_interval((1, 7), 2) for _ in range(dims)]),
        min_size=1, max_size=40))
    window = draw(st.lists(_interval((-3, 12), 5), min_size=dims,
                           max_size=dims))
    return vectors, window


class TestWindowBitsets:
    """Theorem 2 from prefix bitsets must keep exactly the regions the
    reference test :func:`region_in_window` keeps."""

    @given(_vectors_and_window())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        vectors, window = case
        regions = RegionSet(list(range(len(vectors))), vectors)
        assert regions.regions_in_window(window) == [
            rid for rid, vec in enumerate(vectors)
            if region_in_window(vec, window)]

    def test_window_beyond_stored_zones(self):
        regions = RegionSet([0, 1], [((2, 3),), ((4, 5),)])
        assert regions.regions_in_window([(0, 1)]) == []
        assert regions.regions_in_window([(6, 9)]) == []
        assert regions.regions_in_window([(0, 9)]) == [0, 1]
        assert regions.regions_in_window([(3, 4)]) == [0, 1]
        assert regions.regions_in_window([(5, 5)]) == [1]

    def test_index_windows_match_reference(self, medium_index):
        regions = medium_index.regions
        for rids in ([0], [0, 5], list(range(0, regions.region_count, 7))):
            window = tight_window([regions.vectors[r] for r in rids])
            assert regions.regions_in_window(window) == [
                rid for rid, vec in enumerate(regions.vectors)
                if region_in_window(vec, window)]


class TestIntegrationWithIndex:
    def test_region_vectors_distinct(self, medium_index):
        regions = medium_index.regions
        assert len(set(regions.vectors)) == regions.region_count

    def test_every_vertex_in_exactly_one_region(self, medium_index):
        regions = medium_index.regions
        seen = set()
        for members in regions.members:
            for v in members:
                assert v not in seen
                seen.add(v)
        assert len(seen) == len(regions.region_of)

    def test_storage_reduction(self, medium_index):
        """|R| << |V| is the point of region storage (Section IV-A)."""
        regions = medium_index.regions
        assert regions.region_count < len(regions.region_of) / 2
