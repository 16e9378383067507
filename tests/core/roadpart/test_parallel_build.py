"""Determinism tests for the forked index build.

The acceptance bar is byte-identity: a build whose phases (the bridge
join, the cut sweep and labelling rounds, the table rows) fork over any
number of processes must serialise to exactly the bytes of the serial
build (same bridges, cuts, labels, regions and rows), with the same
stats counts, and the flat/dict engine choice must not change the index
either.  Forking is forced by patching ``usable_cpus`` and the phase
thresholds (the ``force_build_forks`` fixture); wall-clock speedup is
deliberately not asserted -- CI boxes may have a single core.
"""

import dataclasses
import multiprocessing
import os
import threading

import pytest

from repro import serve
from repro.core.roadpart import parallel
from repro.core.roadpart.bridges import bridge_join, find_bridges
from repro.core.roadpart.index import build_index
from repro.core.roadpart.parallel import _cut_keys, fork_available
from repro.datasets.synthetic import add_bridges, grid_network
from repro.obs.trace import TraceRecorder
from repro.shortestpath import oracle as oracle_module

from tests.conftest import BUILD_THRESHOLDS

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


def _counts(stats):
    """Every ``IndexBuildStats`` field but the timings and ``workers``."""
    return {name: value for name, value in dataclasses.asdict(stats).items()
            if not name.endswith("_seconds") and name != "workers"}


def _no_worker_left():
    return (multiprocessing.active_children() == []
            and threading.active_count() == 1)


class TestByteIdentity:
    @needs_fork
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_build_matches_serial(self, small_network,
                                           serial_index, jobs, tmp_path,
                                           force_build_forks):
        force_build_forks(jobs)
        parallel_index = build_index(small_network, border_count=5)
        assert parallel_index.stats.workers == jobs
        assert (_saved_bytes(parallel_index, tmp_path, "parallel")
                == _saved_bytes(serial_index, tmp_path, "serial"))
        # The search-effort stats agree too: same cuts were computed.
        assert _counts(parallel_index.stats) == _counts(serial_index.stats)
        assert serial_index.stats.workers == 1

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
                                           serial_index, tmp_path,
                                           force_build_forks):
        # Sixteen usable CPUs, five labelling rounds: the rounds use five
        # processes, the join and the rows sixteen.
        force_build_forks(16)
        parallel_index = build_index(small_network, border_count=5)
        assert parallel_index.stats.workers == 16
        assert (_saved_bytes(parallel_index, tmp_path, "parallel")
                == _saved_bytes(serial_index, tmp_path, "serial"))


def _zone_jump_network():
    """``_make(6, 6, 9, 3)`` of the RoadPart property tests: the
    network whose flyover isolates a border vertex."""
    base = grid_network(6, 6, seed=9, drop_rate=0.1)
    return add_bridges(base, 3, (1.8, 4.0), seed=10)[0]


@pytest.fixture(scope="module")
def build_cases(medium_network):
    """name -> (network, ℓ): the suite's workhorse, a network without
    bridges and the zone-jump counterexample."""
    return {"medium": (medium_network, 8),
            "bridge-free": (grid_network(12, 11, seed=5), 6),
            "zone-jump": (_zone_jump_network(), 6)}


@needs_fork
class TestForkedBuild:
    """Every phase forced to fork builds the serial index: the same
    bytes and the same stats counts, for both oracle policies and both
    engines, and no worker outlives the build."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("case", ["medium", "bridge-free", "zone-jump"])
    def test_same_bytes_and_counts(self, build_cases, case, cpus, tmp_path,
                                   force_build_forks):
        network, ell = build_cases[case]
        configs = [(engine, policy) for engine in ("flat", "dict")
                   for policy in ("auto", "none")]
        serial = {config: build_index(network, ell, engine=config[0],
                                      oracle=config[1])
                  for config in configs}
        force_build_forks(cpus)
        for config in configs:
            forked = build_index(network, ell, engine=config[0],
                                 oracle=config[1])
            want = serial[config]
            name = "-".join(config)
            assert (_saved_bytes(forked, tmp_path, f"forked-{name}")
                    == _saved_bytes(want, tmp_path, f"serial-{name}")), name
            assert _counts(forked.stats) == _counts(want.stats), name
            assert want.stats.workers == 1
            assert forked.stats.workers == cpus, name
            assert _no_worker_left()
        if case != "bridge-free":
            assert serial[("flat", "auto")].oracle is not None

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_find_bridges_returns_the_serial_set(self, medium_network,
                                                 cpus, force_build_forks):
        serial = find_bridges(medium_network)
        force_build_forks(cpus)
        bridges, processes = bridge_join(medium_network)
        assert processes == cpus
        assert isinstance(bridges, frozenset)
        assert bridges == serial and len(serial) > 10
        assert find_bridges(medium_network) == serial
        assert _no_worker_left()

    @pytest.mark.parametrize("module, name", BUILD_THRESHOLDS,
                             ids=["join", "labelling", "rows"])
    def test_a_phase_below_its_threshold_stays_serial(
            self, medium_network, medium_index, module, name,
            force_build_forks, monkeypatch, tmp_path):
        network = medium_network
        work = {"FORK_EDGES": network.num_edges,
                "FORK_LABEL_WORK": 8 * network.num_vertices,
                "FORK_ROW_SETTLES": (len({e for b in medium_index.bridges
                                          for e in b})
                                     * network.num_vertices)}[name]
        force_build_forks(2)
        for other, other_name in BUILD_THRESHOLDS:
            if other_name != name:
                monkeypatch.setattr(other, other_name, float("inf"))
        runs = {}
        for threshold in (work + 1, work):
            monkeypatch.setattr(module, name, threshold)
            runs[threshold] = build_index(network, 8, oracle="auto")
        assert runs[work + 1].stats.workers == 1
        assert runs[work].stats.workers == 2
        assert (_saved_bytes(runs[work], tmp_path, "at")
                == _saved_bytes(runs[work + 1], tmp_path, "below"))

    def test_the_suite_networks_stay_serial(self, medium_network):
        # Below every threshold: no test that merely builds an index
        # pays for a fork.
        index = build_index(medium_network, 8, oracle="auto")
        assert index.oracle is not None
        assert index.stats.workers == 1
        assert index.oracle.workers == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity masks on this platform")
    def test_one_usable_cpu_builds_serially(self, small_network,
                                            serial_index, tmp_path,
                                            monkeypatch):
        for module, name in BUILD_THRESHOLDS:
            monkeypatch.setattr(module, name, 0)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            index = build_index(small_network, border_count=5)
        finally:
            os.sched_setaffinity(0, mask)
        assert index.stats.workers == 1
        assert (_saved_bytes(index, tmp_path, "one")
                == _saved_bytes(serial_index, tmp_path, "serial"))

    def test_a_build_inside_a_batch_worker_stays_serial(
            self, small_network, serial_index, tmp_path, monkeypatch,
            force_build_forks, medium_query):
        force_build_forks(2)
        want = _saved_bytes(serial_index, tmp_path, "serial")

        def build_instead(*_args, **_kwargs):
            index = build_index(small_network, border_count=5)
            path = f"{tmp_path}/in-worker-{os.getpid()}.rpix"
            index.save_binary(path)
            with open(path, "rb") as fh:
                return (index.stats.workers, fh.read() == want), None, None

        # Forked before the patch is undone: every batch worker runs
        # the build in place of a query.
        monkeypatch.setattr(serve, "_answer_one", build_instead)
        outcome = serve.run_queries("ble", [medium_query] * 2,
                                    network=small_network, jobs=2)
        assert outcome.effective_jobs == 2
        assert outcome.results == [(1, True), (1, True)]
        assert _no_worker_left()

    def test_no_worker_left_after_a_raising_build(self, small_network,
                                                  force_build_forks,
                                                  monkeypatch):
        force_build_forks(2)

        def boom(*_args, **_kwargs):
            raise RuntimeError("labelling round failed")

        monkeypatch.setattr(parallel, "label_round", boom)
        with pytest.raises(RuntimeError, match="labelling round failed"):
            build_index(small_network, border_count=5)
        assert _no_worker_left()

    def test_no_worker_left_after_failing_rows(self, small_network,
                                               force_build_forks,
                                               monkeypatch):
        force_build_forks(2)

        def boom(*_args, **_kwargs):
            raise RuntimeError("row failed")

        monkeypatch.setattr(oracle_module, "_fill_rows", boom)
        with pytest.raises(RuntimeError, match="row failed"):
            build_index(small_network, border_count=5, oracle="auto")
        assert _no_worker_left()


class TestTrace:
    @needs_fork
    def test_parallel_trace_has_rounds_in_order(self, small_network,
                                                force_build_forks):
        force_build_forks(2)
        trace = TraceRecorder()
        index = build_index(small_network, border_count=5, trace=trace)
        assert index.stats.workers == 2
        labeling = trace.find("labeling")
        assert labeling is not None
        # The up-front cut sweep, then the rounds in order.
        assert [s.label for s in labeling.children] \
            == ["cuts"] + [f"round-{i}" for i in range(5)]
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
    @pytest.fixture()
    def map_files(self, tmp_path):
        from repro.graph.io import write_dimacs
        base = grid_network(10, 10, seed=41)
        network, _ = add_bridges(base, 2, (2.0, 5.0), seed=42)
        write_dimacs(network, str(tmp_path / "m.gr"), str(tmp_path / "m.co"))
        return ["build-index", "--graph", str(tmp_path / "m.gr"),
                "--coords", str(tmp_path / "m.co"), "--borders", "4"]

    @needs_fork
    def test_cli_jobs_build_identical(self, tmp_path, map_files, capsys,
                                      force_build_forks):
        from repro.cli import main
        assert main(map_files + ["--out", str(tmp_path / "serial.rpix")]) \
            == 0
        assert "workers=1" in capsys.readouterr().out
        force_build_forks(2)
        assert main(map_files + ["--out", str(tmp_path / "par.rpix")]) == 0
        assert "workers=2" in capsys.readouterr().out
        assert ((tmp_path / "serial.rpix").read_bytes()
                == (tmp_path / "par.rpix").read_bytes())

    def test_build_index_has_no_jobs_flag(self, tmp_path, map_files,
                                          capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(map_files + ["--jobs", "2",
                              "--out", str(tmp_path / "x.rpix")])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "x.rpix").exists()
