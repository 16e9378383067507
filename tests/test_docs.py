"""Doc-drift guards: the observability docs must keep naming the real
counter fields and phase labels, and the README must link the docs.

These are deliberately shallow greps — they catch renames that would
silently strand the documentation, not prose quality."""

import pathlib

import pytest

from repro.obs.counters import field_names

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# Phase labels each DPS entry point emits (see docs/observability.md).
PHASE_LABELS = {
    "BL-Q": ["sssp", "collect"],
    "BL-E": ["center", "settle-query", "extend-2r"],
    "ConvexHull": ["hull-membership", "crossing-border",
                   "connect-borders"],
    "RoadPart": ["window", "region-prune", "bridge-classify",
                 "cor3-ble", "oracle", "bridge-domains", "path-patch"],
}

# Span labels the index build records.
TRACE_LABELS = ["bridges", "contour", "labeling", "cuts", "flood",
                "pockets", "oracle", "trees"]

# Surfaces of the retired numpy engine that no doc may still describe.
RETIRED_ENGINE_NEEDLES = ("REPRO_VEC_DISABLE", "repro.shortestpath.vec",
                          "VecDijkstraSearch", "FloodEngine",
                          "vec_backend", "repro[vec]", "{flat,dict,numpy}")

# Surfaces of the retired JSON index layout that no doc may still
# describe: the sniffing loader and convert's target-layout option.
RETIRED_FORMAT_NEEDLES = ("load_auto", "sniff_binary", "--format")

# The refusal a JSON index file gets (repro.core.roadpart.binfmt).
JSON_REBUILD_NOTE = "JSON indexes (roadpart-index-v1) are no longer read"


@pytest.fixture(scope="module")
def observability_doc():
    return (REPO_ROOT / "docs" / "observability.md").read_text()


class TestObservabilityDoc:
    def test_documents_every_counter_field(self, observability_doc):
        for name in field_names():
            assert name in observability_doc, (
                f"counter field {name!r} missing from "
                "docs/observability.md")

    def test_documents_every_phase_label(self, observability_doc):
        for algorithm, labels in PHASE_LABELS.items():
            for label in labels:
                assert label in observability_doc, (
                    f"{algorithm} phase {label!r} missing from "
                    "docs/observability.md")

    def test_documents_trace_spans(self, observability_doc):
        for label in TRACE_LABELS:
            assert label in observability_doc

    def test_documents_cli_flags_and_schema(self, observability_doc):
        from repro.bench.metrics import BENCH_SCHEMA
        assert "--stats" in observability_doc
        assert "--stats-json" in observability_doc
        assert BENCH_SCHEMA in observability_doc

    def test_documents_engine_selection_and_batching(self,
                                                     observability_doc):
        """PR 3 surfaces: the fused kernels, the perf gates and the
        batched-query driver must stay documented."""
        for needle in ("flat_bridge_domains", "flat_bidirectional_ppsp",
                       "bench bridges", "bench throughput",
                       "repro.serve", "run_queries", "--jobs", "--batch",
                       "merge_query_stats"):
            assert needle in observability_doc, (
                f"{needle!r} missing from docs/observability.md")

    def test_documents_settle_kernel_counters(self, observability_doc):
        """The flat == dict counter contract stops at BL-Q and the hull,
        whose goal-directed settles must stay documented as such."""
        for needle in ("settle_targets", "repro.shortestpath.settle",
                       "goal-directed",
                       "tests/property/test_settle_equivalence.py"):
            assert needle in observability_doc, (
                f"{needle!r} missing from docs/observability.md")

    def test_documents_fault_tolerance_counters(self, observability_doc):
        """PR 4 surfaces: the failure/fallback/retry counters, the new
        CLI flags and the gauge split must stay documented."""
        for needle in ("failures", "fallbacks", "retries",
                       "effective_jobs", "QueryFailure", "deadline_ms",
                       "--deadline-ms", "--fallback", "--max-retries",
                       "radius_min", "radius_max", "radius_mean",
                       "center_vertex", "--inject"):
            assert needle in observability_doc, (
                f"{needle!r} missing from docs/observability.md")

    def test_count_extras_registry_matches_entry_points(self):
        """Every numeric extra a DPS entry point emits must be
        classified by the merge: either a summed count or a known
        identity; anything else silently becomes a gauge, which is
        wrong for a count."""
        from repro.serve import COUNT_EXTRAS, IDENTITY_EXTRAS
        emitted_counts = {"b", "bv", "regions_kept", "query_regions",
                          "sssp_rounds", "border", "refined",
                          "oracle_hits", "oracle_fallbacks"}
        assert emitted_counts <= COUNT_EXTRAS
        assert "center_vertex" in IDENTITY_EXTRAS
        assert "radius" not in COUNT_EXTRAS  # the gauge the split fixes

    def test_documents_oracle_surfaces(self, observability_doc):
        """The oracle phase, its honest counters, the CLI flag and the
        bench gate must stay documented, as must the table's query-time
        contract: every examined bridge is an oracle hit and the
        dual-heap phase runs only without a table."""
        for needle in ("oracle_hits", "oracle_fallbacks", "--oracle",
                       "ORACLE_CHECK_RATIO", "endpoint tree table",
                       "every examined bridge",
                       "`bridge-domains` appears only under `--oracle"
                       " none`"):
            assert needle in observability_doc, (
                f"{needle!r} missing from docs/observability.md")

    def test_documents_metrics_exposition(self, observability_doc):
        """PR 6 surfaces: the daemon's /metrics families, the cache
        counters and the accumulator must stay documented."""
        for needle in ("/metrics", "repro_requests_total",
                       "repro_rejected_total", "repro_failures_total",
                       "repro_fallbacks_total", "repro_cache_hits_total",
                       "repro_cache_misses_total",
                       "repro_cache_evictions_total",
                       "repro_request_latency_seconds",
                       "repro_computed_seconds_total",
                       "repro_phase_seconds_total", "StatsAccumulator",
                       "render_metrics", "parse_metrics",
                       "--arrival-rate", "repro_request_layer_seconds",
                       "lock_wait", "serialize"):
            assert needle in observability_doc, (
                f"{needle!r} missing from docs/observability.md")

    def test_documents_vectorized_engine_surfaces(self,
                                                  observability_doc):
        """The two-engine surfaces (the --engine flag, the build-info
        metric, the --version line) stay documented; the numpy engine,
        its backend probe and the label-sweep gate are gone."""
        for needle in ("repro_build_info", "--engine {flat,dict}",
                       "resolve_engine", "--version",
                       "(engines: flat, dict)"):
            assert needle in observability_doc, (
                f"{needle!r} missing from docs/observability.md")
        for gone in RETIRED_ENGINE_NEEDLES + (
                "bucket-level", "available_engines", "bench sweep",
                "SWEEP_CHECK_RATIO"):
            assert gone not in observability_doc

    def test_documents_vectorized_build_surfaces(self,
                                                 observability_doc):
        """Build surfaces: the table's build span and size field and the
        build microbenchmark gate must stay documented; the partial-PLL
        builder's span names and engine field are gone."""
        for needle in ("trees", "oracle_entries", "endpoints × |V|",
                       "bench build", "BUILD_CHECK_RATIO",
                       "FIG10_REPEATS"):
            assert needle in observability_doc, (
                f"{needle!r} missing from docs/observability.md")
        for gone in ("pll-scalar", "pll-vectorized", "oracle_engine"):
            assert gone not in observability_doc

    def test_documents_every_exposed_metric_family(self):
        """Every family the daemon can emit must appear in the doc's
        exposition table (the search families are one templated row)."""
        from repro.serve.daemon import _METRIC_TYPES
        doc = (REPO_ROOT / "docs" / "observability.md").read_text()
        for name in _METRIC_TYPES:
            assert name in doc, (
                f"metric family {name!r} missing from "
                "docs/observability.md")

    def test_phase_labels_match_source(self):
        """The grep targets above must themselves track the code."""
        sources = {
            "BL-Q": "src/repro/core/blq.py",
            "BL-E": "src/repro/core/ble.py",
            "ConvexHull": "src/repro/core/hull.py",
            "RoadPart": "src/repro/core/roadpart/query.py",
        }
        for algorithm, rel in sources.items():
            code = (REPO_ROOT / rel).read_text()
            for label in PHASE_LABELS[algorithm]:
                assert f'"{label}"' in code, (
                    f"phase {label!r} not found in {rel}; update "
                    "PHASE_LABELS and docs/observability.md together")


class TestServingDoc:
    """docs/serving.md must keep naming the real endpoints, headers,
    format constants, CLI surface and metric names."""

    @pytest.fixture(scope="class")
    def serving_doc(self):
        return (REPO_ROOT / "docs" / "serving.md").read_text()

    def test_documents_endpoints_and_statuses(self, serving_doc):
        for needle in ("POST /query", "GET /healthz", "GET /metrics",
                       "X-Repro-Cache", "400", "504", "500",
                       "RequestValidationError", "DeadlineExceeded",
                       "fallback_used", "deadline_ms", "X-Repro-Engine",
                       "X-Repro-Oracle", "413", "MAX_BODY_BYTES",
                       "HANDLER_TIMEOUT_S", "TCP_NODELAY"):
            assert needle in serving_doc, (
                f"{needle!r} missing from docs/serving.md")

    def test_documents_binary_format(self, serving_doc):
        from repro.core.roadpart import binfmt
        assert binfmt.FORMAT_NAME in serving_doc
        # One layout: the retired version-1 name and CH sections are gone.
        assert "roadpart-index-bin-v1" not in serving_doc
        assert "orchrk" not in serving_doc
        assert binfmt.MAGIC.decode("ascii") in serving_doc
        for tag in binfmt.SECTION_TAGS + binfmt.ORACLE_SECTION_TAGS:
            assert f"`{tag.decode('ascii')}`" in serving_doc, (
                f"section {tag!r} missing from docs/serving.md")
        for needle in ("mmap", "IndexFormatError", "save_binary",
                       "load_binary", "memoryview"):
            assert needle in serving_doc
        # One layout: no loader sniffs between formats, and convert no
        # longer translates to another one.
        for gone in RETIRED_FORMAT_NEEDLES:
            assert gone not in serving_doc, (
                f"{gone!r} still in docs/serving.md")

    def test_documents_the_json_rebuild_note(self, serving_doc, tmp_path):
        """The doc quotes the refusal a JSON index gets; it must track
        the real message."""
        from repro.core.roadpart import binfmt
        from repro.errors import IndexFormatError
        old = tmp_path / "old.idx"
        old.write_text('{"format": "roadpart-index-v1"}')
        with pytest.raises(IndexFormatError) as excinfo:
            binfmt.read_header(old)
        note = str(excinfo.value).split(": ", 1)[1]
        assert note.startswith(JSON_REBUILD_NOTE)
        assert " ".join(note.split()) in " ".join(serving_doc.split())

    def test_documents_cli_surface(self, serving_doc):
        for needle in ("repro serve", "index convert", "index info",
                       "--cache-size", "--deadline-ms", "--fallback",
                       "--port", "--engine", "--arrival-rate",
                       "SIGTERM"):
            assert needle in serving_doc, (
                f"{needle!r} missing from docs/serving.md")

    def test_documents_cache_semantics(self, serving_doc):
        for needle in ("ResultCache", "canonical_key", "byte",
                       "repro_cache_hits_total", "StatsAccumulator"):
            assert needle in serving_doc

    def test_lifecycle_summary_matches_cli(self, serving_doc):
        """The doc quotes the CLI's startup/shutdown lines; they must
        track the real strings in repro.cli."""
        cli = (REPO_ROOT / "src" / "repro" / "cli.py").read_text()
        assert "serving on http://" in serving_doc
        assert "serving on http://" in cli
        assert "daemon stopped:" in serving_doc
        assert "daemon stopped:" in cli


class TestReadmeLinks:
    def test_readme_links_new_docs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for page in ("docs/architecture.md", "docs/observability.md",
                     "docs/algorithms.md", "docs/real_data.md",
                     "docs/serving.md"):
            assert page in readme, f"{page} missing from README.md"

    def test_readme_serving_quickstart(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for needle in ("build-index", "repro serve",
                       "/query", "/healthz", "/metrics",
                       "X-Repro-Cache"):
            assert needle in readme, (
                f"{needle!r} missing from the README quickstart")
        # build-index writes the served file: no convert step.
        for gone in RETIRED_FORMAT_NEEDLES:
            assert gone not in readme, f"{gone!r} still in README.md"

    def test_architecture_doc_names_all_subsystems(self):
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for package in ("repro.graph", "repro.shortestpath", "repro.core",
                        "repro.obs", "repro.bench", "repro.datasets",
                        "repro.serve"):
            assert package in doc

    def test_architecture_doc_names_dualheap_kernels(self):
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for needle in ("flat_bridge_domains", "flat_bidirectional_ppsp",
                       "run_queries"):
            assert needle in doc, (
                f"{needle!r} missing from docs/architecture.md")

    def test_architecture_doc_covers_settle_kernel(self):
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for needle in ("Goal-directed many-to-many kernel",
                       "settle_targets", "repro.shortestpath.settle",
                       "lower_bound_scale", "metric_violation_ratio",
                       "Canonical predecessors", "Tie settling",
                       "Reopening", "Lazy h", "Zero-length arcs",
                       "verify_dps"):
            assert needle in doc, (
                f"{needle!r} missing from docs/architecture.md")

    def test_architecture_doc_covers_fault_tolerance(self):
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for needle in ("QueryFailure", "DeadlineExceeded", "Deadline",
                       "FaultPlan", "BrokenProcessPool", "max_retries",
                       "deadline_ms", "fallback"):
            assert needle in doc, (
                f"{needle!r} missing from docs/architecture.md")

    def test_architecture_doc_covers_serving_tier(self):
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for needle in ("DPSDaemon", "binfmt", "ResultCache",
                       "canonical_key", "mmap", "save_binary",
                       "load_binary", "roadpart-index-bin-v4"):
            assert needle in doc, (
                f"{needle!r} missing from docs/architecture.md")
        assert "roadpart-index-bin-v1" not in doc
        for gone in RETIRED_FORMAT_NEEDLES + ("map.index.json",):
            assert gone not in doc, f"{gone!r} still in architecture.md"

    def test_architecture_doc_covers_distance_oracles(self):
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for needle in ("HubOracle", "build_oracle",
                       "read_index_binary", "roadpart-index-bin-v4",
                       "repro.shortestpath.oracle",
                       "ORACLE_CHECK_RATIO", "endpoint tree table",
                       "collect_path_vertices", "_in_domain",
                       "Why the derived trees equal the dual-heap trees",
                       "Derived predecessors", "HubOracle.preds",
                       "table_obstacle", "ulp(2W)", "The size trade"):
            assert needle in doc, (
                f"{needle!r} missing from docs/architecture.md")
        assert "CHOracle" not in doc
        assert "oracle_from_payload" not in doc

    def test_docs_describe_the_dist_only_table(self):
        """The table stores dist rows only (bin-v4): no doc or docstring
        may still describe a stored predecessor section."""
        paths = [REPO_ROOT / "docs" / name for name in (
            "architecture.md", "serving.md", "observability.md")]
        paths += [REPO_ROOT / "src" / "repro" / "shortestpath" / "oracle.py",
                  REPO_ROOT / "src" / "repro" / "core" / "roadpart"
                  / "binfmt.py",
                  REPO_ROOT / "src" / "repro" / "core" / "roadpart"
                  / "index.py"]
        for path in paths:
            text = path.read_text()
            for gone in ("orpred", "pred_row", "pred rows",
                         "roadpart-index-bin-v3"):
                assert gone not in text, f"{gone!r} still in {path.name}"
        serving = (REPO_ROOT / "docs" / "serving.md").read_text()
        assert "roadpart-index-bin-v4" in serving

    def test_architecture_doc_covers_vectorized_engine(self):
        """Two engines: the numpy engine and its backend seam are gone,
        and the reason the batched array sweep was left out stays."""
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for gone in RETIRED_ENGINE_NEEDLES + (
                "VecHubScratch", "minimum.reduceat", "result equivalence"):
            assert gone not in doc
        for needle in ("resolve_engine", "operation-equivalent",
                       "array sweep"):
            assert needle in doc, (
                f"{needle!r} missing from docs/architecture.md")

    def test_architecture_doc_covers_vectorized_build(self):
        """Builds are byte-identical across engines and jobs; the array
        flood pass and the batched PLL builder are gone."""
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for gone in ("VecHubLabeler", "vec_pruned_labeling", "bucketed",
                     "CuPy"):
            assert gone not in doc
        for needle in ("engine=dict|flat", "byte-identical",
                       "BUILD_CHECK_RATIO", "bench build"):
            assert needle in doc, (
                f"{needle!r} missing from docs/architecture.md")

    def test_docs_cover_index_reads_on_a_miss(self):
        """Corollary 3 from endpoint-table cells and Theorem 2 from
        region bitsets, each with its reference, stay documented."""
        needles = {
            "algorithms.md": ("run_ble_radius", "rounding_band",
                              "BLEOutcome.within_2r",
                              "RegionSet.regions_in_window",
                              "region_in_window", "dist(x, vc)"),
            "architecture.md": ("RegionSet.regions_in_window",
                                "region_in_window", "rounding_band",
                                "dist(x, vc)", "`r` stage"),
            "observability.md": ("repro.core.ble.rounding_band",
                                 "RegionSet.regions_in_window",
                                 "`r` stage", "repro_search_*",
                                 "dist(x, vc)"),
        }
        for page, words in needles.items():
            doc = (REPO_ROOT / "docs" / page).read_text()
            for needle in words:
                assert needle in doc, f"{needle!r} missing from docs/{page}"

    def test_docs_cover_bridge_handling_reads(self):
        """Observation 1 from endpoint-label bitsets and Theorem 5 from
        memoised table verdicts, each with its reference, stay
        documented."""
        needles = {
            "algorithms.md": ("BridgeLabelBits.classify", "LabelBits",
                              "classify_bridge", "HubOracle.screen",
                              "HubOracle.domains"),
            "architecture.md": ("BridgeLabelBits", "LabelBits",
                                "classify_bridge", "HubOracle.screen",
                                "HubOracle.domains", "verdict byte"),
            "observability.md": ("BridgeLabelBits.classify",
                                 "classify_bridge", "HubOracle.screen",
                                 "HubOracle.domains", "first pass (ms)"),
        }
        for page, words in needles.items():
            doc = (REPO_ROOT / "docs" / page).read_text()
            for needle in words:
                assert needle in doc, f"{needle!r} missing from docs/{page}"

    def test_docs_cover_forked_rounds(self):
        """The forked BL-Q and hull rounds, when they fork, the
        ``workers`` extra and the one fork helper stay documented."""
        needles = {
            "architecture.md": ("Forked rounds", "One fork helper",
                                "repro.forkpool", "may_fork",
                                "usable_cpus", "fork_pool", "inherited",
                                "FORK_SETTLES", "SettleRun",
                                "BrokenProcessPool", "copy-on-write",
                                "HANDOFF_INTERVAL", "peak_rss_mb"),
            "algorithms.md": ("(the `workers` stat)",),
            "observability.md": ("workers_min", "workers_max",
                                 "workers_mean", "phase_total ≤ seconds",
                                 "pools never nest"),
            "serving.md": ("The daemon answers BL-Q and the hull serially",
                           "repro.forkpool.may_fork"),
        }
        for page, words in needles.items():
            doc = (REPO_ROOT / "docs" / page).read_text()
            for needle in words:
                assert needle in doc, f"{needle!r} missing from docs/{page}"

    def test_workers_extra_merges_as_a_gauge(self):
        from repro.obs.stats import QueryStats
        from repro.serve import (COUNT_EXTRAS, IDENTITY_EXTRAS,
                                 merge_query_stats)
        assert "workers" not in COUNT_EXTRAS | IDENTITY_EXTRAS
        merged = merge_query_stats(
            [QueryStats(extras={"workers": n}) for n in (1, 2, 2)])
        assert (merged.extras["workers_min"], merged.extras["workers_max"],
                merged.extras["workers_mean"]) == (1.0, 2.0, 5 / 3)
