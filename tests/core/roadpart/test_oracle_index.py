"""Oracle-carrying indexes end to end: build, save, reload, and answer
queries.

The load-bearing contracts:

* DPS outputs are byte-identical with and without an oracle -- the
  endpoint tree table holds the very trees the dual heap grows, and it
  answers every examined bridge.
* There is one binary layout: ``oracle="none"`` builds write the same
  version-4 header with the oracle sections left out.
* Files from older layouts -- version 1, version 2 (hub labels),
  version 3 (stored predecessor rows), a JSON index (stored ``pred``
  rows or a contraction-hierarchy payload included), or a file
  carrying a contraction-hierarchy oracle -- are rejected; the fix is
  a rebuild.
* Saving streams every section from its buffer: no copy of the rows.
* A network where a relaxation could absorb an edge gets no table under
  ``oracle="auto"``, and RoadPart answers with the dual heap.
* Structural defects (unknown section tags, a bad oracle kind code)
  surface as :class:`~repro.errors.IndexFormatError` naming the path.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import math
import struct
import tracemalloc

import pytest

from repro.core.ble import run_ble_radius
from repro.core.dps import DPSQuery
from repro.core.roadpart import binfmt
from repro.core.roadpart.index import RoadPartIndex, build_index
from repro.core.roadpart.parallel import fork_available
from repro.core.roadpart.query import RoadPartQueryProcessor, roadpart_dps
from repro.datasets.queries import window_query
from repro.datasets.synthetic import add_bridges, grid_network
from repro.errors import IndexFormatError
from repro.graph.network import RoadNetwork
from repro.obs.counters import SearchCounters
from repro.obs.stats import QueryStats
from repro.obs.trace import TraceRecorder
from repro.shortestpath.flat import release_search
from repro.shortestpath.oracle import HubOracle

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


def _bridged_fixture(seed):
    return add_bridges(grid_network(12, 10, seed=seed), 6, (2.0, 5.0),
                       seed=seed + 1)


@pytest.fixture(scope="module")
def hub_index(medium_network):
    """The medium index built with the endpoint tree table (what
    ``--oracle auto`` resolves to on a bridged network)."""
    index = build_index(medium_network, border_count=8, oracle="auto")
    assert index.oracle is not None and index.oracle.kind == "hub"
    return index


@pytest.fixture(scope="module")
def bin_path(hub_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("oracleidx") / "index.bin"
    hub_index.save_binary(path)
    return path


def _old_json_index(path, oracle):
    """A JSON index as older builds wrote it (``roadpart-index-v1``),
    carrying ``oracle`` as its oracle payload."""
    path.write_text(json.dumps({
        "format": "roadpart-index-v1", "num_vertices": 3,
        "border_vertex_ids": [0, 2], "region_of": [0, 0, 0],
        "region_vectors": [[[1, 1], [1, 2]]], "bridges": [[0, 1]],
        "oracle": oracle}))
    return path


class TestQueryByteIdentity:
    def test_dps_identical_with_and_without_oracle(self, medium_index,
                                                   hub_index,
                                                   medium_query):
        with_oracle = roadpart_dps(hub_index, medium_query)
        without = roadpart_dps(medium_index, medium_query)
        assert with_oracle.vertices == without.vertices

    def test_oracle_counters_only_when_attached(self, medium_index,
                                                hub_index, medium_query):
        plain = roadpart_dps(medium_index, medium_query)
        assert "oracle_hits" not in plain.stats
        assert "oracle_fallbacks" not in plain.stats
        assisted = roadpart_dps(hub_index, medium_query)
        # The table answers every examined bridge, valid or not.
        assert assisted.stats["b"] > 0
        assert assisted.stats["oracle_hits"] == assisted.stats["b"]
        assert assisted.stats["oracle_fallbacks"] == 0
        assert assisted.stats["bv"] == plain.stats["bv"]

    def test_oracle_none_policy_disables_even_when_attached(
            self, hub_index, medium_query):
        off = roadpart_dps(hub_index, medium_query, oracle="none")
        assert "oracle_hits" not in off.stats

    def test_unknown_oracle_policy_raises(self, hub_index):
        # The retired per-kind policies are unknown now, like any typo.
        for policy in ("hub", "ch", "plateau"):
            with pytest.raises(ValueError, match="unknown oracle policy"):
                RoadPartQueryProcessor(hub_index, oracle=policy)


def _flyover_grid():
    """A 7x7 unit grid with two weight-3 flyovers, (1,1)-(3,2) and
    (4,4)-(6,5).  Integer weights make every float distance exact, so
    table cells land exactly on ``2r``."""
    n = 7
    coords = [(float(i), float(j)) for j in range(n) for i in range(n)]
    edges = [(v, v + 1, 1.0) for v in range(n * n) if v % n < n - 1]
    edges += [(v, v + n, 1.0) for v in range(n * n - n)]
    edges += [(8, 17, 3.0), (32, 41, 3.0)]
    return RoadNetwork(coords, edges)


class TestCorollary3FromTable:
    """With a table, Corollary 3 reads ``dist(x, vc)`` cells instead of
    extending BL-E's search to ``2r``; the answers must not move."""

    def test_endpoint_exactly_at_2r_takes_the_band_path(self):
        network = _flyover_grid()
        index = build_index(network, border_count=4, oracle="auto")
        query = DPSQuery.q_query([0, 3])
        r_stage = SearchCounters()
        ble = run_ble_radius(network, query, counters=r_stage)
        release_search(ble.search)
        assert (ble.center_vertex, ble.radius) == (1, 2.0)
        # Endpoint 17 of the exterior bridge (8, 17) sits exactly on 2r,
        # inside the rounding band: the search must extend and decide.
        assert index.oracle.distance(17, 1) == 4.0
        assert (8, 17) in RoadPartQueryProcessor(index).examined_bridges(
            query)
        stats = QueryStats()
        with_table = roadpart_dps(index, query, stats=stats)
        assert stats.counters.vertices_settled > r_stage.vertices_settled
        plain = roadpart_dps(index, query, oracle="none")
        assert with_table.vertices == plain.vertices
        assert (with_table.stats["b"], with_table.stats["bv"]) == (
            plain.stats["b"], plain.stats["bv"])

    def test_every_pair_matches_the_2r_search(self):
        network = _flyover_grid()
        index = build_index(network, border_count=4, oracle="auto")
        table = RoadPartQueryProcessor(index)
        plain = RoadPartQueryProcessor(index, oracle="none")
        for s in range(0, 49, 3):
            for t in range(s + 1, 49, 2):
                query = DPSQuery.q_query([s, t])
                a, b = table.query(query), plain.query(query)
                assert a.vertices == b.vertices, (s, t)
                assert (a.stats["b"], a.stats["bv"]) == (
                    b.stats["b"], b.stats["bv"]), (s, t)

    def test_table_leaves_only_the_r_stage(self, medium_network,
                                           medium_index, hub_index,
                                           medium_query):
        r_stage = SearchCounters()
        release_search(run_ble_radius(medium_network, medium_query,
                                      counters=r_stage).search)
        with_table, plain = QueryStats(), QueryStats()
        roadpart_dps(hub_index, medium_query, stats=with_table)
        roadpart_dps(medium_index, medium_query, stats=plain)
        assert with_table.counters.vertices_settled == (
            r_stage.vertices_settled)
        assert (with_table.counters.vertices_settled
                < plain.counters.vertices_settled)
        # docs/observability.md's worked example (oracle "none").
        assert plain.counters.vertices_settled == 4477


class TestTheorem5FromVerdicts:
    """RoadPart screens each examined bridge over the table's memoised
    verdicts (:meth:`HubOracle.screen`)."""

    def test_memo_holds_one_vertex_buffer_per_examined_bridge(
            self, medium_network, hub_index):
        fresh = HubOracle(hub_index.oracle.hubs, hub_index.oracle.rows,
                          medium_network)
        index = dataclasses.replace(hub_index, oracle=fresh)
        processor = RoadPartQueryProcessor(index)
        examined = set()
        valid = 0
        for seed in range(8):
            for eps in (0.1, 0.15, 0.25):
                query = DPSQuery.q_query(window_query(medium_network, eps,
                                                      seed=seed))
                examined.update(processor.examined_bridges(query))
                result = processor.query(query)
                valid += result.stats["bv"]
                assert result.vertices == roadpart_dps(
                    hub_index, query, oracle="none").vertices
        assert valid and len(examined) > 1
        assert {key[:2] for key in fresh._verdicts} == examined
        assert len(fresh._verdicts) == len(examined)
        assert all(len(memo) == medium_network.num_vertices
                   for memo in fresh._verdicts.values())


class TestSerialisation:
    def test_oracle_none_build_writes_version_4(self, medium_index,
                                                tmp_path):
        path = tmp_path / "plain.bin"
        medium_index.save_binary(path)
        header = binfmt.read_header(path)
        assert header.version == binfmt.VERSION == 4
        assert binfmt.FORMAT_NAME == "roadpart-index-bin-v4"
        assert tuple(header.sections) == binfmt.SECTION_TAGS

    def test_oracle_build_writes_version_4(self, bin_path, hub_index,
                                           medium_network):
        header = binfmt.read_header(bin_path)
        assert header.version == binfmt.VERSION
        assert tuple(header.sections) == (binfmt.SECTION_TAGS
                                          + binfmt.ORACLE_SECTION_TAGS)
        assert binfmt.ORACLE_SECTION_TAGS == (b"oracle", b"orends",
                                              b"ordist")
        cells = len(hub_index.oracle.hubs) * medium_network.num_vertices
        assert header.sections[b"ordist"][1] == 8 * cells
        assert (binfmt.read_oracle_meta(bin_path, header)
                == len(hub_index.oracle.hubs))

    def test_save_copies_no_row(self, hub_index, tmp_path):
        """Every section goes to the file from its own buffer: the
        traced peak of a save stays far below the rows it writes (a
        copy of them alone would read 1x)."""
        hub_index.save_binary(tmp_path / "warm.bin")  # imports, caches
        tracemalloc.start()
        try:
            hub_index.save_binary(tmp_path / "index.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < hub_index.oracle.row_bytes() / 4
        assert ((tmp_path / "index.bin").read_bytes()
                == (tmp_path / "warm.bin").read_bytes())

    def test_binary_round_trip_preserves_answers(self, bin_path,
                                                 medium_network,
                                                 hub_index,
                                                 medium_query):
        loaded = RoadPartIndex.load_binary(bin_path, medium_network)
        assert loaded.oracle is not None
        assert loaded.oracle.kind == "hub"
        assert loaded.stats.oracle_entries == hub_index.oracle.entry_count()
        # The rows stay views over the mapping: nothing is materialised.
        assert isinstance(loaded.oracle.rows, memoryview)
        assert loaded.oracle.rows.obj is loaded._mmap_keepalive
        fresh = roadpart_dps(hub_index, medium_query)
        reloaded = roadpart_dps(loaded, medium_query)
        assert reloaded.vertices == fresh.vertices
        assert reloaded.stats == fresh.stats

    def test_version_1_file_rejected(self, medium_index, medium_network,
                                     tmp_path):
        """An older build's oracle-less file: the version-3 layout with
        a version-1 header word."""
        path = tmp_path / "v1.bin"
        medium_index.save_binary(path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="version 1") as excinfo:
            RoadPartIndex.load_binary(path, medium_network)
        assert "rebuild" in str(excinfo.value)
        with pytest.raises(IndexFormatError, match="version 1"):
            binfmt.read_header(path)

    def test_save_in_place_over_the_mapped_file(self, bin_path,
                                                medium_network, tmp_path):
        """An mmap-loaded index saved over its own file: its rows are a
        view over that file, so the writer must not truncate the file
        before it has written them."""
        path = tmp_path / "inplace.bin"
        path.write_bytes(bin_path.read_bytes())
        loaded = RoadPartIndex.load_binary(path, medium_network)
        loaded.save_binary(path)
        assert path.read_bytes() == bin_path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["inplace.bin"]
        assert (roadpart_dps(loaded, DPSQuery.q_query([0, 400])).vertices
                == roadpart_dps(RoadPartIndex.load_binary(
                    path, medium_network), DPSQuery.q_query([0, 400])
                ).vertices)

    def test_version_3_stored_pred_file_rejected(self, bin_path,
                                                  medium_network,
                                                  tmp_path):
        """A version-3 file (stored ``orpred`` rows) asks for a
        rebuild."""
        blob = bytearray(bin_path.read_bytes())
        blob[4:8] = struct.pack("<I", 3)
        path = tmp_path / "v3.bin"
        path.write_bytes(bytes(blob))
        for load in (binfmt.read_header,
                     lambda p: RoadPartIndex.load_binary(p, medium_network)):
            with pytest.raises(IndexFormatError,
                               match="version 3.*rebuild the index"):
                load(path)

    def test_json_stored_pred_rows_rejected(self, medium_network,
                                            tmp_path):
        """A JSON index whose table still stores ``pred`` rows (an
        older build's) asks for a rebuild."""
        bad = _old_json_index(tmp_path / "pred.json", {
            "kind": "hub", "hubs": [0, 1], "dist": [0.0] * 6,
            "pred": [-1] * 6})
        with pytest.raises(IndexFormatError,
                           match="pred.json: JSON indexes"
                                 r" \(roadpart-index-v1\) are no longer"
                                 " read.*rebuild the index"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_version_2_hub_label_file_rejected(self, bin_path,
                                               medium_network, tmp_path):
        """A version-2 file (the retired hub-label oracle) asks for a
        rebuild instead of being misread."""
        blob = bytearray(bin_path.read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path = tmp_path / "v2.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError,
                           match="version 2.*rebuild the index"):
            RoadPartIndex.load_binary(path, medium_network)

    def test_oracle_kind_code_2_rejected(self, bin_path, medium_network,
                                         tmp_path):
        """Kind code 2 was the contraction-hierarchy oracle."""
        header = binfmt.read_header(bin_path)
        meta_offset, _ = header.sections[binfmt.ORACLE_META_TAG]
        blob = bytearray(bin_path.read_bytes())
        blob[meta_offset:meta_offset + 4] = struct.pack("<I", 2)
        path = tmp_path / "ch.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="kind code 2"):
            RoadPartIndex.load_binary(path, medium_network)
        with pytest.raises(IndexFormatError, match="kind code 2"):
            binfmt.read_oracle_meta(path, binfmt.read_header(path))

    def test_contraction_hierarchy_sections_rejected(self, bin_path,
                                                     medium_network,
                                                     tmp_path):
        """A file laid out the way older builds wrote a CH oracle names
        the section this build does not know."""
        blob = bin_path.read_bytes()
        for old, new in zip(binfmt.TABLE_SECTION_TAGS,
                            (b"orchrk", b"orchof", b"orchtg")):
            blob = blob.replace(old.ljust(8, b"\0"), new.ljust(8, b"\0"))
        path = tmp_path / "ch.bin"
        path.write_bytes(blob)
        with pytest.raises(IndexFormatError, match="orchrk") as excinfo:
            RoadPartIndex.load_binary(path, medium_network)
        assert "rebuild" in str(excinfo.value)

    def test_json_ch_oracle_payload_rejected(self, medium_network,
                                             tmp_path):
        """A JSON index carrying a contraction-hierarchy oracle asks
        for a rebuild."""
        bad = _old_json_index(tmp_path / "ch.json", {
            "kind": "ch", "rank": [], "offsets": [0], "up_targets": [],
            "up_weights": []})
        with pytest.raises(IndexFormatError,
                           match="ch.json: JSON indexes.*rebuild the"
                                 " index"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_unknown_section_tag_names_path_and_section(self, bin_path,
                                                        tmp_path):
        blob = bin_path.read_bytes()
        assert blob.count(b"orends") == 1  # only the section table
        mangled = tmp_path / "mangled.bin"
        mangled.write_bytes(blob.replace(b"orends", b"zzends"))
        with pytest.raises(IndexFormatError) as excinfo:
            binfmt.read_index_binary(mangled)
        assert "zzends" in str(excinfo.value)
        assert "mangled.bin" in str(excinfo.value)



class TestBuildDeterminism:
    @needs_fork
    def test_parallel_build_matches_serial_with_oracle(
            self, medium_network, hub_index, tmp_path, force_build_forks):
        force_build_forks(2)
        parallel = build_index(medium_network, border_count=8,
                               oracle="auto")
        assert parallel.stats.workers >= 2
        assert parallel.oracle.workers >= 2
        assert hub_index.stats.workers == 1
        serial_path = tmp_path / "serial.bin"
        parallel_path = tmp_path / "parallel.bin"
        hub_index.save_binary(serial_path)
        parallel.save_binary(parallel_path)
        assert (parallel_path.read_bytes()
                == serial_path.read_bytes())

    def test_build_stats_record_oracle_phase(self, hub_index,
                                             medium_index, medium_network):
        assert hub_index.stats.oracle_kind == "hub"
        assert hub_index.stats.oracle_entries == (
            len(hub_index.oracle.hubs) * medium_network.num_vertices)
        assert hub_index.stats.oracle_seconds > 0
        assert medium_index.stats.oracle_kind == "none"
        assert medium_index.stats.oracle_entries == 0

    @pytest.mark.parametrize("seed", [3, 7])
    def test_table_identical_across_engines(self, seed):
        """The flat and dict index builds attach the same endpoint tree
        table on a bridged network."""
        network, bridges = _bridged_fixture(seed)
        tables = [build_index(network, 6, bridges=bridges, engine=engine,
                              oracle="auto").oracle
                  for engine in ("flat", "dict")]
        assert tables[0].hubs == tables[1].hubs
        assert tables[0].rows.tobytes() == tables[1].rows.tobytes()

    def test_oracle_index_files_byte_identical(self, tmp_path,
                                               force_build_forks):
        """--oracle auto index files compare equal, byte for byte,
        across engine=dict|flat, serial and forked over two
        processes."""
        network, bridges = _bridged_fixture(9)
        paths = []
        for processes in (1, 2):
            if processes == 2:
                if not fork_available():
                    break
                force_build_forks(2)
            for engine in ("dict", "flat"):
                index = build_index(network, 6, bridges=bridges,
                                    engine=engine, oracle="auto")
                assert index.stats.workers == processes
                path = tmp_path / f"{engine}-{processes}.rpix"
                index.save_binary(str(path))
                paths.append(path)
        for path in paths[1:]:
            assert filecmp.cmp(paths[0], path, shallow=False), (
                f"{path.name} differs from {paths[0].name}")

    def test_oracle_build_trace_names_the_builder(self):
        network, bridges = _bridged_fixture(13)
        trace = TraceRecorder()
        build_index(network, 6, bridges=bridges, oracle="auto", trace=trace)
        span = trace.find("oracle")
        assert span is not None
        assert [child.label for child in span.children] == ["trees"]


class TestAbsorptionPolicy:
    """Derived predecessors need every relaxation to raise its label:
    a network with an edge some relaxation could absorb gets no table
    under ``oracle="auto"``, and RoadPart answers with the dual heap."""

    @staticmethod
    def _zero_edge_grid():
        """:func:`_flyover_grid` with one grid edge of weight zero."""
        base = _flyover_grid()
        edges = [(e.u, e.v, 0.0 if (e.u, e.v) == (24, 25) else e.weight)
                 for e in base.edges()]
        return RoadNetwork([(c.x, c.y) for c in base.coords], edges)

    def test_auto_attaches_no_table(self):
        network = self._zero_edge_grid()
        index = build_index(network, border_count=4, oracle="auto")
        assert index.bridges and index.oracle is None
        assert index.stats.oracle_kind == "none"
        assert index.stats.oracle_entries == 0
        with pytest.raises(ValueError,
                           match=r"edge \(24, 25\) of weight 0\.0.*absorb"):
            HubOracle.build(network, sorted(index.bridges))
        for s, t in ((0, 48), (3, 45), (8, 41)):
            query = DPSQuery.q_query([s, t])
            assert (roadpart_dps(index, query).vertices
                    == roadpart_dps(index, query, oracle="none").vertices)

    def test_threshold_is_ulp_of_twice_the_total_weight(self):
        """An edge exactly at ``ulp(2W)`` is refused, the next float up
        is not (the policy ``table_obstacle`` documents)."""
        from repro.shortestpath.oracle import table_obstacle
        coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 0.0)]
        at = 2.0 ** -50  # ulp(4.0); W stays within [2, 4)
        for weight, refused in ((at, True), (math.nextafter(at, 1), False)):
            network = RoadNetwork(coords, [(0, 1, 1.0), (1, 2, 1.0),
                                           (2, 3, weight)])
            assert math.ulp(2.0 * (2.0 + weight)) == at
            assert (table_obstacle(network) is not None) == refused
