"""Unit tests for the SVG renderers (structure checks on the output)."""

import xml.etree.ElementTree as ET

import pytest

from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.viz import SvgCanvas, render_dps, render_network, render_partition

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestCanvas:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SvgCanvas([])

    def test_projection_flips_y(self):
        canvas = SvgCanvas([(0, 0), (10, 10)])
        x_low, y_low = canvas.project((0, 0))
        x_high, y_high = canvas.project((10, 10))
        assert x_low < x_high
        assert y_low > y_high  # larger map-y is smaller svg-y

    def test_escapes_text(self):
        canvas = SvgCanvas([(0, 0), (1, 1)])
        canvas.text((0, 0), "<&>")
        svg = canvas.render()
        assert "<&>" not in svg
        assert "&lt;&amp;&gt;" in svg

    def test_degenerate_single_point(self):
        canvas = SvgCanvas([(5, 5)])
        canvas.circle((5, 5), "red")
        _parse(canvas.render())  # well-formed


class TestRenderers:
    def test_network_svg_well_formed(self, grid5):
        root = _parse(render_network(grid5))
        lines = root.findall(f"{SVG_NS}line")
        assert len(lines) == grid5.num_edges

    def test_bridge_highlighted(self, bridge_network):
        svg = render_network(bridge_network, bridges=[(6, 13)])
        assert "#d95f02" in svg  # the bridge colour appears

    def test_dps_render(self, grid5):
        query = DPSQuery.q_query([0, 24])
        result = bl_quality(grid5, query)
        root = _parse(render_dps(grid5, result))
        circles = root.findall(f"{SVG_NS}circle")
        assert len(circles) == 2  # the two query points
        texts = root.findall(f"{SVG_NS}text")
        assert any("BL-Q" in (t.text or "") for t in texts)

    def test_partition_render(self, medium_index):
        root = _parse(render_partition(medium_index))
        circles = root.findall(f"{SVG_NS}circle")
        # One dot per vertex plus one per border vertex.
        expected = (medium_index.network.num_vertices
                    + medium_index.border_count)
        assert len(circles) == expected
        assert root.findall(f"{SVG_NS}polyline")  # the contour ring


class TestLoadedIndexRendering:
    def test_partition_render_without_contour(self, medium_network,
                                              medium_index, tmp_path):
        """A loaded index has no contour object; the renderer must cope
        (no polyline, everything else drawn)."""
        from repro.core.roadpart.index import RoadPartIndex
        path = tmp_path / "index.rpix"
        medium_index.save_binary(path)
        loaded = RoadPartIndex.load_binary(path, medium_network)
        assert loaded.contour is None
        root = _parse(render_partition(loaded))
        assert not root.findall(f"{SVG_NS}polyline")
        assert root.findall(f"{SVG_NS}circle")
