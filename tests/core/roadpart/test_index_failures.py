"""Failure-injection tests for index serialisation: a corrupted or
mismatched index file must fail loudly at load time -- with
:class:`~repro.errors.IndexFormatError` naming the path and what is
wrong -- never produce a silently-wrong query processor."""

import json

import pytest

from repro.cli import main
from repro.core.roadpart.index import RoadPartIndex
from repro.errors import IndexFormatError


@pytest.fixture()
def index_payload(medium_index, tmp_path):
    path = tmp_path / "index.json"
    medium_index.save(path)
    return json.loads(path.read_text()), tmp_path


def _write_and_load(payload, tmp_path, network):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(payload))
    return RoadPartIndex.load(path, network)


class TestCorruptedIndexFiles:
    def test_missing_format_field(self, index_payload, medium_network):
        payload, tmp_path = index_payload
        del payload["format"]
        with pytest.raises(ValueError):
            _write_and_load(payload, tmp_path, medium_network)

    def test_wrong_format_value(self, index_payload, medium_network):
        payload, tmp_path = index_payload
        payload["format"] = "roadpart-index-v999"
        with pytest.raises(ValueError):
            _write_and_load(payload, tmp_path, medium_network)

    def test_vertex_count_mismatch(self, index_payload, medium_network):
        payload, tmp_path = index_payload
        payload["num_vertices"] += 1
        with pytest.raises(ValueError):
            _write_and_load(payload, tmp_path, medium_network)

    def test_missing_required_key(self, index_payload, medium_network):
        payload, tmp_path = index_payload
        del payload["region_vectors"]
        with pytest.raises(IndexFormatError,
                           match="missing required keys: region_vectors"):
            _write_and_load(payload, tmp_path, medium_network)

    def test_missing_keys_all_named(self, index_payload, medium_network):
        payload, tmp_path = index_payload
        del payload["region_vectors"]
        del payload["bridges"]
        with pytest.raises(IndexFormatError,
                           match="region_vectors, bridges"):
            _write_and_load(payload, tmp_path, medium_network)

    def test_error_names_the_path(self, index_payload, medium_network):
        payload, tmp_path = index_payload
        del payload["bridges"]
        with pytest.raises(IndexFormatError, match="mutated.json"):
            _write_and_load(payload, tmp_path, medium_network)

    def test_non_object_payload(self, tmp_path, medium_network):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(IndexFormatError, match="expected a JSON"):
            RoadPartIndex.load(path, medium_network)

    def test_malformed_vectors(self, index_payload, medium_network):
        payload, tmp_path = index_payload
        payload["region_vectors"] = [[[0]]]  # label missing its high end
        with pytest.raises(IndexFormatError, match="malformed"):
            _write_and_load(payload, tmp_path, medium_network)

    def test_not_json(self, tmp_path, medium_network):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json{{{")
        with pytest.raises(IndexFormatError, match="not valid JSON"):
            RoadPartIndex.load(path, medium_network)

    def test_format_error_is_a_value_error(self):
        # Callers that caught the old ValueError keep working.
        assert issubclass(IndexFormatError, ValueError)

    def test_missing_file(self, tmp_path, medium_network):
        with pytest.raises(OSError):
            RoadPartIndex.load(tmp_path / "nope.json", medium_network)


class TestNonIndexFiles:
    """A file that is neither a binary nor a JSON index fails with
    IndexFormatError naming the path, through every entry point."""

    @pytest.fixture()
    def garbage(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(bytes(range(256)))
        return path

    def test_load_and_load_auto(self, garbage, medium_network):
        for load in (RoadPartIndex.load, RoadPartIndex.load_auto):
            with pytest.raises(IndexFormatError, match="garbage.bin"):
                load(garbage, medium_network)

    def test_index_info_on_garbage(self, garbage):
        with pytest.raises(IndexFormatError, match="garbage.bin"):
            main(["index", "info", "--in", str(garbage)])

    def test_index_info_on_json_array(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(IndexFormatError, match="expected a JSON object"):
            main(["index", "info", "--in", str(path)])


class TestRoundTripStability:
    def test_double_round_trip_identical(self, medium_index,
                                         medium_network, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        medium_index.save(p1)
        once = RoadPartIndex.load(p1, medium_network)
        once.save(p2)
        assert p1.read_text() == p2.read_text()
