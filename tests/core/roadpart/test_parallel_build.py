"""Determinism tests for the parallel index build.

The acceptance bar is byte-identity: a ``jobs=N`` build must serialise
to exactly the bytes of the serial build (same cuts, same labels, same
regions), and the flat/dict engine choice must not change the index
either.  Wall-clock speedup is deliberately not asserted -- CI boxes
may have a single core.
"""

import pytest

from repro.core.roadpart.index import build_index
from repro.core.roadpart.parallel import _cut_keys, fork_available
from repro.datasets.synthetic import add_bridges, grid_network
from repro.obs.trace import TraceRecorder

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


@pytest.fixture(scope="module")
def small_network():
    base = grid_network(14, 13, seed=31)
    network, _ = add_bridges(base, 4, (2.0, 5.0), seed=32)
    return network


@pytest.fixture(scope="module")
def serial_index(small_network):
    return build_index(small_network, border_count=5)


def _saved_bytes(index, tmp_path, name):
    path = tmp_path / f"{name}.rpix"
    index.save_binary(path)
    return path.read_bytes()


class TestByteIdentity:
    @needs_fork
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_build_matches_serial(self, small_network,
                                           serial_index, jobs, tmp_path):
        parallel = build_index(small_network, border_count=5, jobs=jobs)
        assert (_saved_bytes(parallel, tmp_path, "parallel")
                == _saved_bytes(serial_index, tmp_path, "serial"))
        # The search-effort stats agree too: same cuts were computed.
        assert (parallel.stats.astar_expanded
                == serial_index.stats.astar_expanded)
        assert (parallel.stats.fallback_cuts
                == serial_index.stats.fallback_cuts)
        assert (parallel.stats.widened_labels
                == serial_index.stats.widened_labels)

    def test_dict_engine_matches_flat(self, small_network, serial_index,
                                      tmp_path):
        dict_index = build_index(small_network, border_count=5,
                                 engine="dict")
        assert (_saved_bytes(dict_index, tmp_path, "dict")
                == _saved_bytes(serial_index, tmp_path, "flat"))
        assert (dict_index.stats.astar_expanded
                == serial_index.stats.astar_expanded)

    @needs_fork
    def test_jobs_exceeding_rounds_is_fine(self, small_network,
                                           serial_index, tmp_path):
        parallel = build_index(small_network, border_count=5, jobs=16)
        assert (_saved_bytes(parallel, tmp_path, "parallel")
                == _saved_bytes(serial_index, tmp_path, "serial"))


class TestTrace:
    @needs_fork
    def test_parallel_trace_has_rounds_in_order(self, small_network):
        trace = TraceRecorder()
        build_index(small_network, border_count=5, jobs=2, trace=trace)
        labeling = trace.find("labeling")
        assert labeling is not None
        round_labels = [s.label for s in labeling.children
                        if s.label.startswith("round-")]
        assert round_labels == [f"round-{i}" for i in range(5)]
        # Worker-recorded sub-spans survive the trip back.
        round0 = trace.find("round-0")
        assert {c.label for c in round0.children} >= {"cuts", "flood"}


class TestCutKeys:
    def test_all_unordered_pairs(self):
        keys = _cut_keys([7, 3, 9])
        assert keys == [(3, 7), (3, 9), (7, 9)]

    def test_duplicate_border_ids(self):
        assert (5, 5) in _cut_keys([5, 5, 8])


class TestCLI:
    @needs_fork
    def test_cli_jobs_build_identical(self, tmp_path):
        from repro.cli import main
        from repro.graph.io import write_dimacs
        base = grid_network(10, 10, seed=41)
        network, _ = add_bridges(base, 2, (2.0, 5.0), seed=42)
        write_dimacs(network, str(tmp_path / "m.gr"), str(tmp_path / "m.co"))
        common = ["build-index", "--graph", str(tmp_path / "m.gr"),
                  "--coords", str(tmp_path / "m.co"), "--borders", "4"]
        assert main(common + ["--out", str(tmp_path / "serial.rpix")]) == 0
        assert main(common + ["--jobs", "2",
                              "--out", str(tmp_path / "par.rpix")]) == 0
        assert ((tmp_path / "serial.rpix").read_bytes()
                == (tmp_path / "par.rpix").read_bytes())
