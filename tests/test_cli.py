"""End-to-end tests for the command-line interface (in-process via
``repro.cli.main`` for speed; one smoke test through ``python -m``)."""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.errors import IndexFormatError
from repro.graph.io import read_dimacs


@pytest.fixture()
def generated_map(tmp_path):
    prefix = tmp_path / "map"
    code = main(["generate", "--kind", "grid", "--columns", "18",
                 "--rows", "16", "--bridges", "4", "--seed", "3",
                 "--out", str(prefix)])
    assert code == 0
    return prefix


class TestGenerate:
    def test_writes_readable_dimacs(self, generated_map):
        net = read_dimacs(f"{generated_map}.gr", f"{generated_map}.co")
        assert net.num_vertices > 200
        assert net.num_edges > net.num_vertices

    def test_kinds(self, tmp_path):
        for kind in ("ring", "multi-city"):
            prefix = tmp_path / kind
            assert main(["generate", "--kind", kind, "--columns", "8",
                         "--rows", "8", "--out", str(prefix)]) == 0
            net = read_dimacs(f"{prefix}.gr", f"{prefix}.co")
            assert net.num_vertices > 0


class TestStats:
    def test_valid_network(self, generated_map, capsys):
        code = main(["stats", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co"])
        out = capsys.readouterr().out
        assert code == 0
        assert "model:       OK" in out

    def test_broken_network_flagged(self, tmp_path, capsys):
        (tmp_path / "bad.gr").write_text("p sp 3 2\na 1 2 1\na 2 1 1\n")
        (tmp_path / "bad.co").write_text(
            "v 1 0 0\nv 2 1 0\nv 3 9 9\n")  # vertex 3 isolated
        code = main(["stats", "--graph", str(tmp_path / "bad.gr"),
                     "--coords", str(tmp_path / "bad.co")])
        assert code == 1
        assert "not connected" in capsys.readouterr().out


class TestBuildAndQuery:
    @pytest.fixture()
    def built_index(self, generated_map, tmp_path):
        out = tmp_path / "map.rpix"
        code = main(["build-index", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--borders", "6", "--out", str(out)])
        assert code == 0
        return out

    def test_roadpart_query_with_verify_and_output(self, generated_map,
                                                   built_index, tmp_path):
        out = tmp_path / "region"
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--index", str(built_index),
                     "--algorithm", "roadpart", "--epsilon", "0.3",
                     "--seed", "1", "--refine", "--verify",
                     "--out", str(out)])
        assert code == 0
        subgraph = read_dimacs(f"{out}.gr", f"{out}.co")
        mapping = json.loads((tmp_path / "region.vertices").read_text())
        assert subgraph.num_vertices == len(mapping)
        assert subgraph.num_vertices > 0

    def test_all_algorithms_run(self, generated_map, built_index):
        for algorithm in ("blq", "ble", "hull", "roadpart"):
            argv = ["query", "--graph", f"{generated_map}.gr",
                    "--coords", f"{generated_map}.co",
                    "--algorithm", algorithm, "--epsilon", "0.25",
                    "--verify"]
            if algorithm == "roadpart":
                argv += ["--index", str(built_index)]
            assert main(argv) == 0, algorithm

    def test_explicit_vertex_query(self, generated_map, built_index):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--index", str(built_index),
                     "--vertices", "0,5,17", "--verify"])
        assert code == 0

    def test_roadpart_requires_index(self, generated_map, capsys):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--algorithm", "roadpart"])
        assert code == 2
        assert "--index" in capsys.readouterr().err


class TestQueryFlagValidation:
    """Bad ``query`` flags are usage errors (exit 2, ``error: ...``),
    never tracebacks or a silently different query."""

    @pytest.mark.parametrize("flag", [
        ["--epsilon", "0"], ["--epsilon", "1.5"], ["--epsilon", "nan"],
        ["--vertices", "1,x"], ["--vertices", ""],
        ["--deadline-ms", "0"], ["--deadline-ms", "-5"],
        ["--deadline-ms", "nan"], ["--deadline-ms", "inf"]],
        ids=["epsilon-0", "epsilon-1.5", "epsilon-nan", "vertices-not-int",
             "vertices-empty", "deadline-0", "deadline-negative",
             "deadline-nan", "deadline-inf"])
    def test_rejected_by_the_parser(self, generated_map, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--graph", f"{generated_map}.gr",
                  "--coords", f"{generated_map}.co",
                  "--algorithm", "blq"] + flag)
        assert excinfo.value.code == 2
        assert f"argument {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["build-index", "--out", "x.rpix"], ["--borders", "1"]),
        (["build-index", "--out", "x.rpix"], ["--borders", "0"]),
        (["build-index", "--out", "x.rpix"], ["--borders", "-3"]),
        (["build-index", "--out", "x.rpix"], ["--borders", "2.5"]),
        (["serve"], ["--deadline-ms", "0"]),
        (["serve"], ["--deadline-ms", "-5"]),
        (["serve"], ["--deadline-ms", "nan"])],
        ids=["borders-1", "borders-0", "borders-negative",
             "borders-not-int", "serve-deadline-0",
             "serve-deadline-negative", "serve-deadline-nan"])
    def test_build_and_serve_flags_rejected_by_the_parser(
            self, generated_map, capsys, argv, flag):
        """A border count below 2 would otherwise die in the build with
        a ValueError traceback, and a non-positive serve budget would
        start a daemon that answers 400 to every request without its
        own ``deadline_ms``."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--graph", f"{generated_map}.gr",
                         "--coords", f"{generated_map}.co"] + flag)
        assert excinfo.value.code == 2
        assert f"argument {flag[0]}" in capsys.readouterr().err

    def test_out_of_range_vertex_is_a_usage_error(self, generated_map,
                                                  capsys):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--algorithm", "blq", "--vertices", "1,99999"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --vertices")
        assert "99999" in err


class TestStatsFlags:
    @pytest.fixture()
    def built_index(self, generated_map, tmp_path):
        out = tmp_path / "map.rpix"
        code = main(["build-index", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--borders", "6", "--out", str(out)])
        assert code == 0
        return out

    def _query_argv(self, generated_map, built_index, algorithm):
        argv = ["query", "--graph", f"{generated_map}.gr",
                "--coords", f"{generated_map}.co",
                "--algorithm", algorithm, "--epsilon", "0.25",
                "--seed", "2"]
        if algorithm == "roadpart":
            argv += ["--index", str(built_index)]
        return argv

    @pytest.mark.parametrize("algorithm",
                             ["blq", "ble", "hull", "roadpart"])
    def test_stats_json_roundtrips(self, generated_map, built_index,
                                   capsys, algorithm):
        argv = self._query_argv(generated_map, built_index, algorithm)
        assert main(argv + ["--stats-json"]) == 0
        captured = capsys.readouterr()
        # stdout must be one pure JSON document; chatter goes to stderr
        payload = json.loads(captured.out)
        assert payload.keys() >= {"algorithm", "seconds", "phases",
                                  "counters", "result_size",
                                  "network_size"}
        assert payload["counters"]["vertices_settled"] > 0
        assert payload["phases"]
        assert "DPS" in captured.err

    def test_stats_renders_human_report(self, generated_map, built_index,
                                        capsys):
        argv = self._query_argv(generated_map, built_index, "ble")
        assert main(argv + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "query statistics" in out
        assert "vertices_settled" in out
        assert "extend-2r" in out

    def test_build_index_stats_json(self, generated_map, tmp_path,
                                    capsys):
        out = tmp_path / "traced.rpix"
        code = main(["build-index", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--borders", "5", "--out", str(out),
                     "--stats-json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        labels = [s["label"] for s in payload["spans"]]
        # The CLI defaults to --oracle auto and the generated map has
        # bridges, so the build gains the oracle-construction span.
        assert labels == ["bridges", "contour", "labeling", "oracle"]

    def test_build_index_stats_render(self, generated_map, tmp_path,
                                      capsys):
        out = tmp_path / "traced.rpix"
        code = main(["build-index", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--borders", "5", "--out", str(out), "--stats"])
        assert code == 0
        text = capsys.readouterr().out
        assert "labeling" in text
        assert "  round-0" in text
        # The oracle line names the table and its size, not a builder.
        assert "oracle: endpoint tree table, " in text
        assert "  trees" in text


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "generate", "--kind", "grid",
             "--columns", "6", "--rows", "6",
             "--out", str(tmp_path / "mini")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "mini.gr").exists()


class TestContourOptions:
    def test_hull_contour_build(self, generated_map, tmp_path, capsys):
        out = tmp_path / "hull.rpix"
        code = main(["build-index", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--borders", "5", "--contour", "hull",
                     "--out", str(out)])
        assert code == 0
        assert "contour=hull" in capsys.readouterr().out
        assert out.exists()


class TestBatchQuery:
    @pytest.fixture()
    def built_index(self, generated_map, tmp_path):
        out = tmp_path / "map.rpix"
        code = main(["build-index", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--borders", "6", "--out", str(out)])
        assert code == 0
        return out

    def test_batch_runs_and_reports(self, generated_map, built_index,
                                    capsys):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--index", str(built_index),
                     "--algorithm", "roadpart", "--epsilon", "0.25",
                     "--seed", "5", "--batch", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[0] RoadPart" in out and "[2] RoadPart" in out
        assert "batch: 3 queries" in out
        assert "jobs=1" in out

    def test_jobs_flag_answers_identically(self, generated_map,
                                           built_index, capsys):
        argv = ["query", "--graph", f"{generated_map}.gr",
                "--coords", f"{generated_map}.co",
                "--index", str(built_index),
                "--algorithm", "roadpart", "--epsilon", "0.25",
                "--seed", "5", "--batch", "3"]
        assert main(argv) == 0
        serial = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[")]
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        parallel = [line for line in parallel_out.splitlines()
                    if line.startswith("[")]
        # Per-query sizes are byte-identical; only wall-clock differs.
        assert [l.split(" in ")[0] for l in parallel] \
            == [l.split(" in ")[0] for l in serial]
        assert "jobs=2" in parallel_out or "jobs=1" in parallel_out

    def test_batch_stats_json_merges(self, generated_map, built_index,
                                     capsys):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--index", str(built_index),
                     "--algorithm", "roadpart", "--epsilon", "0.25",
                     "--seed", "5", "--batch", "2", "--stats-json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "RoadPart"
        assert payload["counters"]["heap_pops"] > 0

    def test_batch_rejects_single_query_flags(self, generated_map,
                                              built_index, capsys):
        base = ["query", "--graph", f"{generated_map}.gr",
                "--coords", f"{generated_map}.co",
                "--index", str(built_index), "--algorithm", "roadpart",
                "--batch", "2"]
        assert main(base + ["--vertices", "0,1"]) == 2
        assert "--vertices" in capsys.readouterr().err
        assert main(base + ["--verify"]) == 2
        assert "--refine/--verify/--out" in capsys.readouterr().err

    def test_batch_roadpart_requires_index(self, generated_map, capsys):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--algorithm", "roadpart", "--batch", "2"])
        assert code == 2
        assert "--index" in capsys.readouterr().err

    def test_batch_blq_needs_no_index(self, generated_map, capsys):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--algorithm", "blq", "--epsilon", "0.25",
                     "--batch", "2", "--jobs", "2"])
        assert code == 0
        assert "batch: 2 queries" in capsys.readouterr().out

    def test_batch_reports_effective_jobs(self, generated_map,
                                          built_index, capsys):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--index", str(built_index),
                     "--algorithm", "roadpart", "--epsilon", "0.25",
                     "--seed", "5", "--batch", "3", "--jobs", "8"])
        assert code == 0
        out = capsys.readouterr().out
        # Requested and effective worker counts both surface: 8 workers
        # were asked for, at most 3 chunks exist for 3 queries.
        assert "jobs=8" in out
        assert "effective=" in out


class TestDeadlineFlags:
    @pytest.fixture()
    def built_index(self, generated_map, tmp_path):
        out = tmp_path / "map.rpix"
        code = main(["build-index", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--borders", "6", "--out", str(out)])
        assert code == 0
        return out

    def test_generous_deadline_answers_normally(self, generated_map,
                                                built_index, capsys):
        # --deadline-ms routes through the batch driver even for a
        # single query; a generous budget changes nothing.
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--index", str(built_index),
                     "--algorithm", "roadpart", "--epsilon", "0.25",
                     "--seed", "5", "--deadline-ms", "60000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[0] RoadPart" in out
        assert "FAILED" not in out

    def test_deadline_with_explicit_vertices(self, generated_map,
                                             built_index, capsys):
        code = main(["query", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--index", str(built_index),
                     "--algorithm", "roadpart",
                     "--vertices", "0,17,35",
                     "--deadline-ms", "60000"])
        assert code == 0
        assert "[0] RoadPart" in capsys.readouterr().out

    def test_unknown_fallback_name_errors(self, generated_map,
                                          built_index):
        with pytest.raises(ValueError, match="unknown fallback"):
            main(["query", "--graph", f"{generated_map}.gr",
                  "--coords", f"{generated_map}.co",
                  "--index", str(built_index),
                  "--algorithm", "roadpart", "--batch", "2",
                  "--deadline-ms", "60000", "--fallback", "astar"])


class TestIndexTools:
    @pytest.fixture()
    def built_index(self, generated_map, tmp_path):
        out = tmp_path / "map.rpix"
        code = main(["build-index", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co",
                     "--borders", "6", "--out", str(out)])
        assert code == 0
        return out

    def test_convert_round_trip(self, generated_map, built_index,
                                tmp_path, capsys):
        """Stripping the table and attaching it again reproduces the
        built file byte for byte, the stripped file equals an --oracle
        none build, and the converted index answers queries."""
        files = ["--graph", f"{generated_map}.gr", "--coords",
                 f"{generated_map}.co"]
        plain = tmp_path / "plain.rpix"
        assert main(["build-index", *files, "--borders", "6",
                     "--oracle", "none", "--out", str(plain)]) == 0
        stripped = tmp_path / "stripped.rpix"
        capsys.readouterr()
        assert main(["index", "convert", *files, "--in", str(built_index),
                     "--out", str(stripped), "--oracle", "none"]) == 0
        assert "oracle=none)" in capsys.readouterr().out
        assert stripped.read_bytes() == plain.read_bytes()
        lifted = tmp_path / "lifted.rpix"
        assert main(["index", "convert", *files, "--in", str(stripped),
                     "--out", str(lifted), "--oracle", "auto"]) == 0
        assert "oracle=hub)" in capsys.readouterr().out
        assert lifted.read_bytes() == built_index.read_bytes()
        code = main(["query", *files, "--index", str(lifted),
                     "--algorithm", "roadpart", "--epsilon", "0.25",
                     "--seed", "2", "--verify"])
        assert code == 0

    def test_convert_needs_an_oracle_policy(self, generated_map,
                                            built_index, capsys):
        """``convert`` only attaches or strips the table: without
        --oracle it has nothing to do, and --format is gone."""
        files = ["--graph", f"{generated_map}.gr", "--coords",
                 f"{generated_map}.co", "--in", str(built_index),
                 "--out", "y.rpix"]
        for extra in ([], ["--oracle", "keep"],
                      ["--oracle", "none", "--format", "json"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["index", "convert", *files, *extra])
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --oracle" in err
        assert "invalid choice: 'keep'" in err
        assert "unrecognized arguments: --format json" in err

    def test_info_both_formats(self, built_index, tmp_path, capsys):
        """``index info`` describes a bin-v4 file and refuses a JSON
        index from an older build with the rebuild note."""
        assert main(["index", "info", "--in", str(built_index)]) == 0
        out = capsys.readouterr().out
        # build-index defaults to --oracle auto and the generated map has
        # bridges, so the file carries the table (v4): dist rows only,
        # the predecessors are derived from them.
        assert "roadpart-index-bin-v4" in out
        assert "borders (l): 6" in out
        assert "section regionof" in out
        assert "section ordist" in out
        assert "orpred" not in out
        assert "oracle:      hub (endpoint tree table:" in out
        assert "dist rows" in out and "pred" not in out
        old = tmp_path / "old.json"
        old.write_text('{"format": "roadpart-index-v1"}')
        with pytest.raises(IndexFormatError,
                           match="roadpart-index-v1.*rebuild the index"):
            main(["index", "info", "--in", str(old)])

    def test_build_says_why_no_table(self, generated_map, tmp_path,
                                     capsys):
        """With a zero-weight edge a relaxation may absorb, --oracle
        auto attaches no table, and build-index and convert say why."""
        from repro.graph.io import write_dimacs
        from repro.graph.network import RoadNetwork
        net = read_dimacs(f"{generated_map}.gr", f"{generated_map}.co")
        first = next(net.edges())
        edges = [(e.u, e.v, 0.0 if e == first else e.weight)
                 for e in net.edges()]
        prefix = tmp_path / "zero"
        write_dimacs(RoadNetwork(net.coords, edges), f"{prefix}.gr",
                     f"{prefix}.co")
        files = ["--graph", f"{prefix}.gr", "--coords", f"{prefix}.co"]
        assert main(["build-index", *files, "--borders", "6",
                     "--out", str(tmp_path / "zero.rpix")]) == 0
        out = capsys.readouterr().out
        note = (f"oracle: none: edge ({first.u}, {first.v}) of weight"
                f" 0.0 does not exceed ulp(2W)")
        assert "oracle=none" in out and note in out
        assert "RoadPart answers with the dual heap" in out
        assert main(["index", "convert", *files, "--in",
                     str(tmp_path / "zero.rpix"), "--out",
                     str(tmp_path / "lifted.rpix"), "--oracle", "auto"]) == 0
        assert note in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["build-index", "--out", "x.idx"], ["query"], ["serve"],
        ["index", "convert", "--in", "x.idx", "--out", "y.rpix"]])
    @pytest.mark.parametrize("policy", ["hub", "ch"])
    def test_retired_oracle_policies_rejected(self, argv, policy, capsys):
        """--oracle takes auto|none; the per-kind policies are argparse
        errors."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--graph", "g.gr", "--coords", "g.co",
                         "--oracle", policy])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["build-index", "--out", "x.idx"], ["query"], ["serve"]])
    def test_numpy_engine_rejected(self, argv, capsys):
        """--engine takes flat|dict; numpy is an argparse error."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--graph", "g.gr", "--coords", "g.co",
                         "--engine", "numpy"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_roadpart_requires_index(self, generated_map, capsys):
        code = main(["serve", "--graph", f"{generated_map}.gr",
                     "--coords", f"{generated_map}.co"])
        assert code == 2
        assert "--index" in capsys.readouterr().err
