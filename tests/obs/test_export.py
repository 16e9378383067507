"""Prometheus text exposition helpers: rendering, parsing, and the
percentile math the latency summary is built on."""

from __future__ import annotations

import pytest

from repro.obs.export import parse_metrics, percentile, render_metrics


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_median_even_count_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_endpoints(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_input_order_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 50) \
            == percentile([1.0, 2.0, 3.0], 50)

    def test_linear_interpolation(self):
        # numpy.percentile(values, 95) on [0..99] -> 94.05
        values = [float(i) for i in range(100)]
        assert percentile(values, 95) == pytest.approx(94.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)


class TestRenderMetrics:
    def test_type_lines_and_values(self):
        text = render_metrics(
            [("up_total", None, 3), ("temp", {"room": "a"}, 1.5)],
            {"up_total": "counter", "temp": "gauge"})
        assert "# TYPE up_total counter\n" in text
        assert "up_total 3\n" in text
        assert 'temp{room="a"} 1.5\n' in text
        assert text.endswith("\n")

    def test_one_type_line_per_family(self):
        text = render_metrics(
            [("lat", {"quantile": "0.5"}, 1.0),
             ("lat", {"quantile": "0.99"}, 2.0)],
            {"lat": "summary"})
        assert text.count("# TYPE lat summary") == 1

    def test_histogram_samples_announce_their_family(self):
        text = render_metrics(
            [("lat_bucket", {"le": "+Inf"}, 2), ("lat_sum", None, 0.5),
             ("lat_count", None, 2)],
            {"lat": "histogram"})
        assert text.startswith("# TYPE lat histogram\n")
        assert text.count("# TYPE") == 1

    def test_bool_rejected(self):
        # bool is an int subclass; an accidental True would render as
        # a valid-looking sample and hide the bug.
        with pytest.raises(TypeError):
            render_metrics([("flag", None, True)], {})

    def test_round_trip(self):
        samples = [("a_total", None, 4),
                   ("lat", {"quantile": "0.5"}, 0.25),
                   ("lat", {"quantile": "0.95"}, 0.75),
                   ("b", None, 2.5)]
        parsed = parse_metrics(render_metrics(samples, {}))
        assert parsed == {"a_total": 4.0,
                          'lat{quantile="0.5"}': 0.25,
                          'lat{quantile="0.95"}': 0.75,
                          "b": 2.5}


class TestParseMetrics:
    def test_skips_comments_and_blanks(self):
        text = "# HELP x nothing\n# TYPE x counter\n\nx 2\n"
        assert parse_metrics(text) == {"x": 2.0}
