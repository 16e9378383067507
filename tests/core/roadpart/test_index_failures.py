"""Failure-injection tests for index files: a corrupted, mismatched or
non-index file must fail loudly at load time -- with
:class:`~repro.errors.IndexFormatError` naming the path and what is
wrong -- never produce a silently-wrong query processor."""

import struct

import pytest

from repro.cli import main
from repro.core.roadpart import binfmt
from repro.core.roadpart.index import RoadPartIndex
from repro.errors import IndexFormatError
from repro.graph.io import write_dimacs


@pytest.fixture()
def index_file(medium_index, tmp_path):
    path = tmp_path / "index.rpix"
    medium_index.save_binary(path)
    return path


def _mutated(path, offset, payload):
    """A copy of ``path`` named ``mutated.rpix``, with ``payload``
    written at ``offset``."""
    data = bytearray(path.read_bytes())
    data[offset:offset + len(payload)] = payload
    bad = path.with_name("mutated.rpix")
    bad.write_bytes(bytes(data))
    return bad


def _without_bridges_section(path):
    """A copy whose section table lists ``orends`` where the layout
    puts ``bridges``: a required section is missing."""
    entry = 32 + 24 * binfmt.SECTION_TAGS.index(b"bridges")
    return _mutated(path, entry, b"orends\0\0")


class TestCorruptedIndexFiles:
    def test_missing_format_field(self, index_file, medium_network):
        # The magic bytes are the format field.
        bad = _mutated(index_file, 0, b"\0\0\0\0")
        with pytest.raises(IndexFormatError,
                           match="not a binary RoadPart index"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_wrong_format_value(self, index_file, medium_network):
        bad = _mutated(index_file, 4, struct.pack("<I", 999))
        with pytest.raises(IndexFormatError,
                           match="version 999.*rebuild the index"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_vertex_count_mismatch(self, index_file, medium_network):
        """A header vertex count that disagrees with the region array."""
        n = medium_network.num_vertices
        bad = _mutated(index_file, 12, struct.pack("<I", n + 1))
        with pytest.raises(IndexFormatError,
                           match=f"'regionof' holds {n} u32s, header"
                                 f" implies {n + 1}"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_missing_required_key(self, index_file, medium_network):
        bad = _without_bridges_section(index_file)
        with pytest.raises(IndexFormatError,
                           match="missing or out of layout order"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_missing_keys_all_named(self, index_file, medium_network):
        """The error lists every section the layout expects."""
        bad = _without_bridges_section(index_file)
        with pytest.raises(IndexFormatError) as excinfo:
            RoadPartIndex.load_binary(bad, medium_network)
        expected = str(excinfo.value).split("expected", 1)[1]
        for tag in binfmt.SECTION_TAGS + binfmt.ORACLE_SECTION_TAGS:
            assert tag.decode("ascii") in expected

    def test_error_names_the_path(self, index_file, medium_network):
        bad = _mutated(index_file, 0, b"NOPE")
        with pytest.raises(IndexFormatError, match="mutated.rpix"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_non_object_payload(self, tmp_path, medium_network):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(IndexFormatError,
                           match="list.json: not a binary RoadPart index"):
            RoadPartIndex.load_binary(path, medium_network)

    def test_malformed_vectors(self, index_file, medium_index,
                               medium_network):
        """A label whose low zone lies above its high one."""
        offset, _ = binfmt.read_header(index_file).sections[b"vectors"]
        lo, hi = medium_index.regions.vectors[0][0]
        bad = _mutated(index_file, offset, struct.pack("<II", hi + 1, hi))
        with pytest.raises(IndexFormatError,
                           match="region 0, dimension 0: label .* is not a"
                                 " zone interval"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_not_json(self, tmp_path, medium_network):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json{{{")
        with pytest.raises(IndexFormatError, match="magic"):
            RoadPartIndex.load_binary(path, medium_network)

    def test_format_error_is_a_value_error(self):
        # Callers that caught the old ValueError keep working.
        assert issubclass(IndexFormatError, ValueError)

    def test_missing_file(self, tmp_path, medium_network):
        with pytest.raises(OSError):
            RoadPartIndex.load_binary(tmp_path / "nope.rpix",
                                      medium_network)


@pytest.fixture(scope="module")
def map_files(medium_network, tmp_path_factory):
    """The medium network as the DIMACS pair the CLI reads."""
    root = tmp_path_factory.mktemp("map")
    write_dimacs(medium_network, root / "map.gr", root / "map.co")
    return ["--graph", str(root / "map.gr"), "--coords",
            str(root / "map.co")]


def _cli_argv(entry, files, path, out):
    """The argv of the CLI command ``entry``, reading index ``path``."""
    return {
        "query": ["query", *files, "--index", path, "--algorithm",
                  "roadpart", "--vertices", "0,1"],
        "serve": ["serve", *files, "--index", path, "--port", "0"],
        "index-info": ["index", "info", "--in", path],
        "index-convert": ["index", "convert", *files, "--in", path,
                          "--out", out, "--oracle", "none"],
    }[entry]


class TestNonIndexFiles:
    """A file that is not a binary index fails with IndexFormatError
    naming the path, through every entry point."""

    @pytest.fixture()
    def garbage(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(bytes(range(256)))
        return path

    def test_index_info_on_garbage(self, garbage, capsys):
        assert main(["index", "info", "--in", str(garbage)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {garbage}: ")

    def test_index_info_on_json_array(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert main(["index", "info", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("entry", ["load_binary", "query", "serve",
                                       "index-info", "index-convert"])
    @pytest.mark.parametrize("content", ["json", "garbage"])
    def test_every_entry_point_asks_for_a_build(
            self, map_files, medium_network, tmp_path, entry, content,
            capsys):
        """A JSON index from an older build (``roadpart-index-v1``) is
        no longer read: it, like any other non-index file, is refused
        with a note to build the index with ``repro build-index`` --
        an :class:`IndexFormatError` from the API, and one ``error:``
        line with exit status 2 from the CLI."""
        path = tmp_path / "old.idx"
        if content == "json":
            path.write_text('{"format": "roadpart-index-v1"}')
        else:
            path.write_bytes(bytes(range(256)))
        if entry == "load_binary":
            with pytest.raises(IndexFormatError) as excinfo:
                RoadPartIndex.load_binary(path, medium_network)
            message = str(excinfo.value)
        else:
            assert main(_cli_argv(entry, map_files, str(path),
                                  str(tmp_path / "out.rpix"))) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            message = err[len("error: "):]
        assert str(path) in message
        assert "with repro build-index" in message
        if content == "json":
            assert "JSON indexes (roadpart-index-v1) are no longer read" \
                in message
            assert "rebuild the index" in message
        assert not (tmp_path / "out.rpix").exists()


class TestRoundTripStability:
    def test_double_round_trip_identical(self, medium_index,
                                         medium_network, tmp_path):
        p1, p2 = tmp_path / "a.rpix", tmp_path / "b.rpix"
        medium_index.save_binary(p1)
        once = RoadPartIndex.load_binary(p1, medium_network)
        once.save_binary(p2)
        assert p1.read_bytes() == p2.read_bytes()
