"""The percentile rule and span self time."""

import pytest

from perf.measure import percentile, tail_percentiles
from perf.spans import SpanRecorder


def test_p99_is_refused_below_1000_samples():
    with pytest.raises(ValueError, match="1000 samples"):
        percentile([float(v) for v in range(999)], 99)
    assert percentile([float(v) for v in range(1000)], 99) == \
        pytest.approx(989.01)


def test_p90_needs_100_samples():
    with pytest.raises(ValueError):
        percentile([1.0] * 99, 90)
    assert percentile([1.0] * 100, 90) == 1.0


def test_median_of_any_sample():
    assert percentile([3.0], 50) == 3.0
    assert percentile([1.0, 2.0], 50) == 1.5


def test_tail_percentiles_only_reports_supported_tails():
    assert set(tail_percentiles([1.0] * 150)) == {"p90"}
    assert set(tail_percentiles([1.0] * 1000)) == {"p90", "p99"}
    assert tail_percentiles([1.0] * 20) == {}


def test_self_time_subtracts_child_coverage_once():
    rec = SpanRecorder()
    o = rec.origin
    root = rec.add("root", o + 0.0, o + 10.0)
    rec.add("a", o + 1.0, o + 4.0, root)
    rec.add("b", o + 3.0, o + 6.0, root)   # overlaps a by one second
    rec.add("c", o + 9.0, o + 12.0, root)  # runs past the parent's end
    selfs = rec.self_times()
    assert selfs[root] == pytest.approx(10.0 - 5.0 - 1.0)
    summary = rec.summary()
    assert summary["root"]["self_ms"] == pytest.approx(4000.0)
    assert summary["a"]["count"] == 1
