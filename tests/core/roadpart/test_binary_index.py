"""The binary (mmap) index layout: round-trip fidelity, query
byte-identity against the built index, and format validation.

The contract under test is the serving tier's foundation: a loaded
index must be indistinguishable from the built one in every answer it
produces, and any structural defect in the file must surface as an
:class:`~repro.errors.IndexFormatError` naming the path."""

from __future__ import annotations

import dataclasses
import math
import struct

import pytest

from repro.core.ble import run_ble_radius
from repro.core.dps import DPSQuery
from repro.core.roadpart import binfmt
from repro.core.roadpart.index import RoadPartIndex
from repro.core.roadpart.query import RoadPartQueryProcessor, roadpart_dps
from repro.datasets.queries import window_query
from repro.errors import IndexFormatError
from repro.shortestpath.flat import release_search
from repro.shortestpath.oracle import build_oracle

from tests.shortestpath.test_oracle import tight_neighbours, walk_corruption


@pytest.fixture(scope="module")
def bin_path(medium_index, tmp_path_factory):
    """The medium index (no table), saved."""
    path = tmp_path_factory.mktemp("binidx") / "index.bin"
    medium_index.save_binary(path)
    return path


@pytest.fixture(scope="module")
def loaded(bin_path, medium_network):
    return RoadPartIndex.load_binary(bin_path, medium_network)


class TestRoundTrip:
    def test_structures_identical(self, loaded, medium_index):
        assert list(loaded.regions.region_of) \
            == list(medium_index.regions.region_of)
        assert loaded.regions.vectors == medium_index.regions.vectors
        assert loaded.bridges == medium_index.bridges
        assert loaded.border_vertex_ids == medium_index.border_vertex_ids

    def test_region_of_is_zero_copy_view(self, loaded):
        # The O(|V|) array must be a view over the mapping, not a
        # parsed Python list -- that is the whole point of the format.
        assert isinstance(loaded.regions.region_of, memoryview)

    def test_query_answers_byte_identical(self, loaded, medium_index,
                                          medium_network):
        for seed in (5, 17, 29):
            query = DPSQuery.q_query(
                window_query(medium_network, 0.2, seed=seed))
            a = roadpart_dps(medium_index, query)
            b = roadpart_dps(loaded, query)
            assert a.vertices == b.vertices
            assert a.stats == b.stats


class TestHeader:
    def test_info_header_matches_index(self, bin_path, medium_index):
        header = binfmt.read_header(bin_path)
        assert header.num_vertices == medium_index.network.num_vertices
        assert header.border_count == medium_index.border_count
        assert header.region_count == medium_index.regions.region_count
        assert header.bridge_count == len(medium_index.bridges)
        assert set(header.sections) == set(binfmt.SECTION_TAGS)


def _corrupt(path, tmp_path, offset, payload):
    data = bytearray(path.read_bytes())
    data[offset:offset + len(payload)] = payload
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    return bad


class TestValidation:
    """Every defect names the path; the exception type is stable."""

    def test_empty_file(self, tmp_path, medium_network):
        bad = tmp_path / "empty.bin"
        bad.write_bytes(b"")
        with pytest.raises(IndexFormatError, match="empty"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_bad_magic(self, bin_path, tmp_path, medium_network):
        bad = _corrupt(bin_path, tmp_path, 0, b"NOPE")
        with pytest.raises(IndexFormatError, match="magic"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_unsupported_version(self, bin_path, tmp_path,
                                 medium_network):
        bad = _corrupt(bin_path, tmp_path, 4, struct.pack("<I", 99))
        with pytest.raises(IndexFormatError, match="version 99"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_nonzero_flags(self, bin_path, tmp_path, medium_network):
        bad = _corrupt(bin_path, tmp_path, 8, struct.pack("<I", 7))
        with pytest.raises(IndexFormatError, match="flags"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_truncated_file(self, bin_path, tmp_path, medium_network):
        data = bin_path.read_bytes()
        bad = tmp_path / "short.bin"
        bad.write_bytes(data[:len(data) // 2])
        with pytest.raises(IndexFormatError,
                           match="runs past end of file"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_header_only(self, tmp_path, medium_network):
        bad = tmp_path / "header.bin"
        bad.write_bytes(binfmt.MAGIC + struct.pack("<I", binfmt.VERSION))
        with pytest.raises(IndexFormatError, match="truncated header"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_shifted_section_offset(self, bin_path, tmp_path,
                                    medium_network):
        """Sections are packed in table order; a shifted one used to
        load and reinterpret its neighbour's bytes."""
        offset, _ = binfmt.read_header(bin_path).sections[b"regionof"]
        entry = 32 + 24 * binfmt.SECTION_TAGS.index(b"regionof")
        bad = _corrupt(bin_path, tmp_path, entry + 8,
                       struct.pack("<Q", offset + 8))
        with pytest.raises(IndexFormatError, match="layout puts it at"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_duplicate_section(self, bin_path, tmp_path,
                               medium_network):
        entry = 32 + 24 * binfmt.SECTION_TAGS.index(b"vectors")
        bad = _corrupt(bin_path, tmp_path, entry, b"regionof")
        with pytest.raises(IndexFormatError,
                           match="duplicate section 'regionof'"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_oracle_sections_all_or_none(self, oracle_bin, tmp_path,
                                         medium_network):
        # Keep the base sections and the meta section, drop the rest.
        bad = _corrupt(oracle_bin, tmp_path, 28, struct.pack("<I", 5))
        with pytest.raises(IndexFormatError, match="all or none"):
            RoadPartIndex.load_binary(bad, medium_network)

    @pytest.mark.parametrize("count", [10, 17, 64])
    def test_section_count_bounded_by_known_tags(self, bin_path,
                                                 tmp_path, count):
        """More sections than the layout has tags is implausible, not a
        'truncated section table'."""
        bad = _corrupt(bin_path, tmp_path, 28, struct.pack("<I", count))
        with pytest.raises(IndexFormatError,
                           match=f"implausible section count {count}"):
            binfmt.read_header(bad)

    def test_wrong_network(self, bin_path, grid5):
        with pytest.raises(ValueError, match="vertices"):
            RoadPartIndex.load_binary(bin_path, grid5)

    def test_writer_rejects_oversized_values(self, tmp_path):
        with pytest.raises(ValueError, match="u32"):
            binfmt.write_index_binary(
                tmp_path / "x.bin", 1, [2 ** 40], [0], [((1, 1),)], [])


@pytest.fixture(scope="module")
def oracle_bin(medium_index, medium_network, tmp_path_factory):
    """The medium index with the endpoint tree table attached, saved."""
    oracle = build_oracle(medium_network, "auto", medium_index.bridges)
    path = tmp_path_factory.mktemp("oraclebin") / "index.bin"
    dataclasses.replace(medium_index, oracle=oracle).save_binary(path)
    return path


def _word_at(path, tag, item):
    """File offset of u32 number ``item`` of section ``tag`` (negative
    ``item`` counts from the section end)."""
    offset, length = binfmt.read_header(path).sections[tag]
    return offset + 4 * (item % (length // 4))


def _patch_section(path, tmp_path, tag, item, value):
    """Copy ``path`` with u32 number ``item`` of section ``tag``
    overwritten."""
    return _corrupt(path, tmp_path, _word_at(path, tag, item),
                    struct.pack("<I", value))


class TestIdChecks:
    """Payload ids that query code indexes by are range-checked at load
    time, so a corrupt file fails there instead of in the first query."""

    def test_bridge_endpoint_out_of_range(self, bin_path, tmp_path,
                                          medium_network):
        bad = _patch_section(bin_path, tmp_path, b"bridges", 0, 10 ** 7)
        with pytest.raises(IndexFormatError,
                           match="bridge endpoint 10000000 out of range"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_border_vertex_out_of_range(self, bin_path, tmp_path,
                                        medium_network):
        n = medium_network.num_vertices
        bad = _patch_section(bin_path, tmp_path, b"borders", 0, n)
        with pytest.raises(IndexFormatError,
                           match=f"border vertex {n} out of range"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_oracle_hub_out_of_range(self, oracle_bin, tmp_path,
                                     medium_network):
        n = medium_network.num_vertices
        bad = _patch_section(oracle_bin, tmp_path, b"orends", 0, n)
        with pytest.raises(IndexFormatError,
                           match=f"oracle endpoint {n} out of range"):
            RoadPartIndex.load_binary(bad, medium_network)

    @pytest.mark.parametrize("item, delta, message", [
        (0, 1, "not the bridge endpoints|not sorted"),
        (-1, 1, "not the bridge endpoints"),
        (1, -1, "not sorted and unique|not the bridge endpoints")])
    def test_endpoint_set_checked(self, oracle_bin, tmp_path,
                                  medium_network, item, delta, message):
        """Endpoint ids are sorted, unique and exactly the bridge
        endpoints: a table row keyed by the wrong vertex would answer
        for the wrong bridge."""
        at = _word_at(oracle_bin, b"orends", item)
        (value,) = struct.unpack_from("<I", oracle_bin.read_bytes(), at)
        bad = _corrupt(oracle_bin, tmp_path, at,
                       struct.pack("<I", value + delta))
        with pytest.raises(IndexFormatError, match=message):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_endpoint_count_checked(self, oracle_bin, tmp_path,
                                    medium_network):
        bad = _patch_section(oracle_bin, tmp_path, b"oracle", 1, 3)
        with pytest.raises(IndexFormatError, match="'orends' holds"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_row_count_checked(self, oracle_bin, tmp_path, medium_network):
        """The ``dist`` rows hold endpoints x |V| cells."""
        header = binfmt.read_header(oracle_bin)
        _, length = header.sections[b"ordist"]
        entry = 32 + 24 * list(header.sections).index(b"ordist")
        bad = _corrupt(oracle_bin, tmp_path, entry + 16,
                       struct.pack("<Q", length - 8))
        with pytest.raises(IndexFormatError, match="'ordist' holds"):
            RoadPartIndex.load_binary(bad, medium_network)

    @pytest.mark.parametrize("case", ["above-l", "zero", "swapped"])
    def test_label_outside_the_zones(self, bin_path, tmp_path,
                                     medium_index, medium_network, case):
        """Every stored label is a zone interval ``1 <= lo <= hi <= l``,
        checked at load: a label outside the zones would otherwise load
        silently or raise a stray IndexError, and a huge zone number
        would make the label bitsets ask for gigabytes."""
        dims = medium_index.border_count
        labels = [label for vector in medium_index.regions.vectors
                  for label in vector]
        i = next(k for k, (lo, hi) in enumerate(labels) if lo < hi)
        lo, hi = labels[i]
        label = {"above-l": (lo, dims + 1), "zero": (0, hi),
                 "swapped": (hi, lo)}[case]
        bad = _corrupt(bin_path, tmp_path,
                       _word_at(bin_path, b"vectors", 2 * i),
                       struct.pack("<II", *label))
        with pytest.raises(IndexFormatError,
                           match=rf"region {i // dims}, dimension"
                                 rf" {i % dims}: label \({label[0]},"
                                 rf" {label[1]}\) is not a zone"
                                 rf" interval") as excinfo:
            RoadPartIndex.load_binary(bad, medium_network)
        assert str(bad) in str(excinfo.value)

    def test_intact_oracle_file_loads(self, oracle_bin, medium_network,
                                      medium_query):
        loaded = RoadPartIndex.load_binary(oracle_bin, medium_network)
        assert loaded.oracle is not None
        assert "oracle_hits" in roadpart_dps(loaded, medium_query).stats


def _table_cell_at(path, hub, vertex, network):
    """File offset of the ``vertex`` cell of ``hub``'s row in the
    ``ordist`` section."""
    header = binfmt.read_header(path)
    offset, _ = header.sections[b"ordist"]
    ends_offset, ends_length = header.sections[b"orends"]
    ends = struct.unpack_from(f"<{ends_length // 4}I", path.read_bytes(),
                              ends_offset)
    row = ends.index(hub)
    return offset + 8 * (row * network.num_vertices + vertex)


class TestTableCells:
    """Row cells are never scanned at load (that would cost
    ``O(|endpoints| x |V|)``); a corrupt cell is caught where a query
    reads it and raises IndexFormatError naming the file, the section
    and the endpoint -- never an IndexError, a wrap-around or a wrong
    answer."""

    @pytest.fixture(scope="class")
    def read_cells(self, oracle_bin, medium_network):
        """A query with a valid bridge, a ``dist`` cell it reads (its
        first vertex in the first examined bridge's row) and a domain
        member of the valid bridge with one of its endpoints."""
        index = RoadPartIndex.load_binary(oracle_bin, medium_network)
        processor = RoadPartQueryProcessor(index)
        for seed in range(40):
            query = DPSQuery.q_query(
                window_query(medium_network, 0.25, seed=seed))
            examined = processor.examined_bridges(query)
            targets = sorted(query.combined)
            for u, v in examined:
                ud, vd = index.oracle.domains(
                    u, v, medium_network.edge_weight(u, v), targets)
                if ud and vd:
                    member = min(x for x in ud | vd if x != u)
                    return (query, (examined[0][0], targets[0]),
                            (u, member))
        pytest.fail("no window examines a valid bridge")

    def _query_raises(self, bad, network, query, match):
        index = RoadPartIndex.load_binary(bad, network)  # no cell scan
        with pytest.raises(IndexFormatError, match=match) as excinfo:
            roadpart_dps(index, query)
        assert str(bad) in str(excinfo.value)

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_bad_distance(self, oracle_bin, tmp_path, medium_network,
                          read_cells, value):
        query, (hub, x), _ = read_cells
        at = _table_cell_at(oracle_bin, hub, x, medium_network)
        bad = _corrupt(oracle_bin, tmp_path, at, struct.pack("<d", value))
        self._query_raises(bad, medium_network, query,
                           f"section 'ordist', row of endpoint {hub}:"
                           f" distance to vertex {x}")

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_bad_corollary3_cell(self, oracle_bin, tmp_path,
                                 medium_network, read_cells, value):
        # Corollary 3 reads dist(x, vc) for every candidate endpoint x
        # before any bridge's domains are read.
        query, (hub, _), _ = read_cells
        center = run_ble_radius(medium_network, query)
        release_search(center.search)
        at = _table_cell_at(oracle_bin, hub, center.center_vertex,
                            medium_network)
        bad = _corrupt(oracle_bin, tmp_path, at, struct.pack("<d", value))
        self._query_raises(bad, medium_network, query,
                           f"section 'ordist', row of endpoint {hub}:"
                           f" distance to vertex {center.center_vertex}")

    @pytest.fixture(scope="class")
    def walk_cell(self, oracle_bin, medium_network, read_cells):
        """A ``dist`` cell only the path patch reads: an inner vertex
        of the walk from the valid bridge's endpoint to its member, not
        a query vertex nor BL-E's centre, whose child on the walk has no
        other tight neighbour."""
        query, _, (hub, member) = read_cells
        table = RoadPartIndex.load_binary(oracle_bin, medium_network).oracle
        center = run_ble_radius(medium_network, query)
        release_search(center.search)
        read_elsewhere = set(query.combined) | {center.center_vertex}
        row = table.dist_row(hub)
        chain = [member]
        while chain[-1] != hub:
            chain.append(table.preds(hub)[chain[-1]])
        for child, y in zip(chain, chain[1:-1]):
            if (y not in read_elsewhere and tight_neighbours(
                    medium_network, row, child) == [y]):
                return query, hub, y, walk_corruption("off", row, y)
        pytest.fail("the member's walk has no inner vertex to corrupt")

    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, "off"])
    def test_bad_cell_on_a_walk(self, oracle_bin, tmp_path, medium_network,
                                walk_cell, value):
        """The path patch derives predecessors from the row: a corrupt
        cell on its walk raises naming the section and the endpoint, on
        the first query and again on the next one."""
        query, hub, y, off = walk_cell
        at = _table_cell_at(oracle_bin, hub, y, medium_network)
        bad = _corrupt(oracle_bin, tmp_path, at, struct.pack(
            "<d", off if value == "off" else value))
        index = RoadPartIndex.load_binary(bad, medium_network)
        for _ in range(2):
            with pytest.raises(IndexFormatError,
                               match=f"section 'ordist', row of endpoint"
                                     f" {hub}: vertex") as excinfo:
                roadpart_dps(index, query)
            assert str(bad) in str(excinfo.value)

    @pytest.mark.parametrize("tag", [b"orends", b"ordist"])
    def test_truncated_table_section(self, oracle_bin, tmp_path,
                                     medium_network, tag):
        """A file cut inside a table section fails at load."""
        offset, length = binfmt.read_header(oracle_bin).sections[tag]
        bad = tmp_path / "cut.bin"
        bad.write_bytes(oracle_bin.read_bytes()[:offset + length // 2])
        with pytest.raises(IndexFormatError, match="past end of file"):
            RoadPartIndex.load_binary(bad, medium_network)


def _header_and_table_words(path):
    """File offsets of every u32 word of the header and section table."""
    header = binfmt.read_header(path)
    table_end = 32 + 24 * len(header.sections)
    return range(0, table_end, 4)


def _section_boundaries(path):
    header = binfmt.read_header(path)
    points = {4, 32, 32 + 24 * len(header.sections)}
    for offset, length in header.sections.values():
        points.update((offset, offset + length))
    size = path.stat().st_size
    return sorted(p for p in points if 0 < p < size)


class TestCorruptionSweep:
    """Deterministic sweep over files with and without an oracle: every
    truncation at a section boundary and every single u32 overwrite of
    a header field or section-table word either raises
    IndexFormatError or loads an index whose RoadPart query raises
    nothing -- never a stray IndexError, struct.error or the like."""

    @pytest.fixture(params=["plain", "oracle"])
    def source(self, request, bin_path, oracle_bin):
        return bin_path if request.param == "plain" else oracle_bin

    @staticmethod
    def _load_or_reject(blob, tmp_path, network, query):
        path = tmp_path / "case.bin"
        if path.exists():
            # A fresh inode per case: the previous case's mapping (kept
            # alive by its traceback) never sees the file change.
            path.unlink()
        path.write_bytes(blob)
        try:
            index = RoadPartIndex.load_binary(path, network)
        except IndexFormatError:
            return "rejected"
        roadpart_dps(index, query)
        return "loaded"

    def test_truncation_at_every_section_boundary(self, source, tmp_path,
                                                  medium_network,
                                                  medium_query):
        blob = source.read_bytes()
        for cut in _section_boundaries(source):
            outcome = self._load_or_reject(blob[:cut], tmp_path,
                                           medium_network, medium_query)
            assert outcome == "rejected", f"truncation at {cut} loaded"

    def test_overwrite_of_every_header_and_table_word(self, source,
                                                      tmp_path,
                                                      medium_network,
                                                      medium_query):
        blob = source.read_bytes()
        outcomes = []
        for at in _header_and_table_words(source):
            (original,) = struct.unpack_from("<I", blob, at)
            for value in (0, 1, original + 1, original - 1, 0xFFFFFFFF):
                value &= 0xFFFFFFFF
                if value == original:
                    continue
                mutated = bytearray(blob)
                struct.pack_into("<I", mutated, at, value)
                outcomes.append(self._load_or_reject(
                    bytes(mutated), tmp_path, medium_network,
                    medium_query))
        assert "rejected" in outcomes
