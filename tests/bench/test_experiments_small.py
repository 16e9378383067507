"""Micro-scale smoke tests for the experiment runners (the benchmarks
run them at full stand-in scale; these check the plumbing cheaply on the
smallest dataset and narrowest sweeps)."""

import pytest

from repro.bench.experiments.ablations import (
    run_bridge_pruning,
    run_partitioning_choices,
    run_window_tightness,
)
from repro.bench.experiments.fig10 import run_fig10
from repro.bench.experiments.fig11 import from_table2_rows
from repro.bench.experiments.sec7c import run_sec7c
from repro.bench.experiments.table1 import as_table, run_table1
from repro.bench.experiments.table2 import as_table as table2_as_table
from repro.bench.experiments.table2 import run_qdps, run_stdps


class TestTable1:
    def test_single_dataset(self):
        rows = run_table1(["COL-S"])
        assert len(rows) == 1
        row = rows[0]
        assert row.num_vertices > 2000
        assert row.region_count > 0
        headers, cells = as_table(rows)
        assert len(headers) == len(cells[0])


class TestFig10:
    def test_two_point_sweep(self):
        points = run_fig10("COL-S", border_counts=[4, 6])
        assert [p.border_count for p in points] == [4, 6]
        assert points[1].region_count >= points[0].region_count


class TestTable2AndFig11:
    def test_one_epsilon(self):
        rows = run_qdps("COL-S", epsilons=[0.30])
        assert len(rows) == 1
        measures = rows[0].measures
        assert set(measures) == {"BL-E", "RoadPart", "Hull", "BL-Q"}
        assert measures["BL-Q"].dps_size <= measures["BL-E"].dps_size
        headers, cells = table2_as_table(rows, symmetric=True)
        assert len(headers) == len(cells[0])

    def test_stdps_row(self):
        rows = run_stdps("COL-S", epsilon=0.1, epsilon_primes=[0.3])
        assert len(rows) == 1
        assert rows[0].source_count > 0 and rows[0].target_count > 0
        headers, cells = table2_as_table(rows, symmetric=False)
        assert len(headers) == len(cells[0])

    def test_fig11_derivation(self):
        rows = run_qdps("COL-S", epsilons=[0.30])
        series = from_table2_rows(rows)
        assert series.dataset == "COL-S"
        assert series.query_sizes == [rows[0].query_size]
        for ratios in series.ratios.values():
            assert ratios[0] >= 1.0


class TestSec7c:
    def test_single_epsilon(self):
        rows = run_sec7c("COL-S", epsilons=[0.2], pair_count=20)
        row = rows[0]
        assert row.pair_count == 20
        assert row.dense_seconds["network"] > 0
        assert row.graph_sizes["network"] > row.graph_sizes["hull-dps"]


class TestAblations:
    def test_bridge_pruning_configurations(self):
        rows = run_bridge_pruning("COL-S", epsilon=0.2)
        names = [r.configuration for r in rows]
        assert "all rules (paper)" in names and "no pruning at all" in names
        by_name = {r.configuration: r for r in rows}
        assert by_name["all rules (paper)"].examined <= \
            by_name["no pruning at all"].examined

    def test_window_tightness(self):
        rows = run_window_tightness("COL-S", epsilons=(0.2,))
        assert {r.mode for r in rows} == {"tight", "loose"}

    def test_partitioning_choices(self):
        rows = run_partitioning_choices("COL-S", epsilon=0.2,
                                        border_count=5)
        assert len(rows) == 4
        assert all(r.region_count > 1 for r in rows)


class TestBridges:
    def test_engines_agree_and_measure(self):
        from repro.bench.experiments.bridges import (oracle_speedup,
                                                     run_bridges,
                                                     screen_speedup,
                                                     speedup)
        # run_bridges raises AssertionError itself if the engines'
        # operation counts diverge -- completing IS the equivalence check
        # (the oracle engine is cross-checked against the dict domains
        # during warm-up the same way).
        measures = run_bridges("COL-S", epsilon=0.25, repeats=1)
        assert {m.engine for m in measures} == {"dict", "flat", "oracle",
                                                "screen"}
        assert all(m.bridges > 0 and m.seconds > 0 for m in measures)
        assert len({m.bridges for m in measures}) == 1
        assert speedup(measures) > 0
        assert oracle_speedup(measures) > 0
        assert screen_speedup(measures) > 0
        # Only the screen row has a cold first pass (a fresh memo).
        assert [m.engine for m in measures if m.first_pass] == ["screen"]


class TestThroughput:
    def test_batch_answers_stable_across_jobs(self):
        from repro.bench.experiments.throughput import run_throughput
        # run_throughput raises AssertionError when any worker count
        # changes an answer -- the byte-identity contract under test.
        measures = run_throughput("COL-S", query_count=2, repeats=1)
        assert [m.jobs for m in measures] == [1, 2]
        assert all(m.queries == 2 and m.queries_per_second > 0
                   for m in measures)


class TestSec7cBidi:
    def test_bidi_column_present(self):
        rows = run_sec7c("COL-S", epsilons=[0.2], pair_count=5)
        row = rows[0]
        assert set(row.bidi_seconds) == {"network", "roadpart-dps",
                                         "hull-dps"}
        assert all(v > 0 for v in row.bidi_seconds.values())
