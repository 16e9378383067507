"""Tests for the batched-query driver (:mod:`repro.serve`).

The driver's whole contract is that parallelism is *invisible* in the
answers: ``run_queries(jobs=N)`` returns byte-identical results, stats
and merged counters to the serial loop, for every algorithm.  Wall-clock
speedup is explicitly NOT asserted -- on a single-core container forking
only adds overhead; the scaling axis is documented by
``bench throughput`` instead.
"""

from __future__ import annotations

import pytest

from repro.core.dps import DPSQuery
from repro.core.roadpart.parallel import fork_available
from repro.datasets.queries import window_query
from repro.obs.stats import QueryStats
from repro.serve import ALGORITHMS, merge_query_stats, run_queries

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform")


@pytest.fixture(scope="module")
def batch(medium_network):
    """Four distinct window queries over the medium network."""
    return [DPSQuery.q_query(window_query(medium_network, 0.2, seed=s))
            for s in (31, 32, 33, 34)]


def _outcome_fingerprint(outcome):
    """Everything observable about a batch, in comparable form."""
    return [
        (r.vertices, r.stats,
         None if qs is None else (qs.counters.as_dict(), qs.result_size))
        for r, qs in zip(outcome.results, outcome.per_query)
    ]


class TestSerialDriver:

    def test_answers_match_direct_calls(self, medium_index, batch):
        from repro.core.roadpart.query import roadpart_dps
        outcome = run_queries("roadpart", batch, index=medium_index)
        direct = [roadpart_dps(medium_index, q) for q in batch]
        assert [r.vertices for r in outcome.results] \
            == [r.vertices for r in direct]
        assert outcome.jobs == 1
        assert outcome.queries_per_second > 0

    @pytest.mark.parametrize("algorithm", ["blq", "ble", "hull"])
    def test_network_algorithms_run(self, medium_network, batch,
                                    algorithm):
        outcome = run_queries(algorithm, batch[:2],
                              network=medium_network)
        assert len(outcome.results) == 2
        assert all(r.vertices for r in outcome.results)

    def test_collect_stats_merges(self, medium_index, batch):
        outcome = run_queries("roadpart", batch, index=medium_index,
                              collect_stats=True)
        assert all(qs is not None for qs in outcome.per_query)
        assert outcome.stats.result_size \
            == sum(qs.result_size for qs in outcome.per_query)
        assert outcome.stats.extras["b"] \
            == sum(qs.extras["b"] for qs in outcome.per_query)
        merged_pops = outcome.stats.counters.as_dict()["heap_pops"]
        assert merged_pops == sum(
            qs.counters.as_dict()["heap_pops"] for qs in outcome.per_query)


@needs_fork
class TestParallelByteIdentity:

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_roadpart_identical_to_serial(self, medium_index, batch,
                                          jobs):
        serial = run_queries("roadpart", batch, index=medium_index,
                             collect_stats=True)
        parallel = run_queries("roadpart", batch, index=medium_index,
                               jobs=jobs, collect_stats=True)
        assert parallel.jobs == jobs
        assert _outcome_fingerprint(parallel) \
            == _outcome_fingerprint(serial)
        assert parallel.stats.counters.as_dict() \
            == serial.stats.counters.as_dict()
        assert parallel.stats.extras == serial.stats.extras

    def test_blq_identical_to_serial(self, medium_network, batch):
        serial = run_queries("blq", batch, network=medium_network)
        parallel = run_queries("blq", batch, network=medium_network,
                               jobs=2)
        assert _outcome_fingerprint(parallel) \
            == _outcome_fingerprint(serial)

    def test_more_jobs_than_queries(self, medium_index, batch):
        outcome = run_queries("roadpart", batch[:2], index=medium_index,
                              jobs=8)
        serial = run_queries("roadpart", batch[:2], index=medium_index)
        assert _outcome_fingerprint(outcome) \
            == _outcome_fingerprint(serial)

    def test_single_query_stays_serial(self, medium_index, batch):
        # jobs>1 with one query must not pay fork overhead; the answer
        # is identical either way so only equality is observable.
        outcome = run_queries("roadpart", batch[:1], index=medium_index,
                              jobs=4)
        serial = run_queries("roadpart", batch[:1], index=medium_index)
        assert _outcome_fingerprint(outcome) \
            == _outcome_fingerprint(serial)


class TestValidation:

    def test_unknown_algorithm(self, medium_network, batch):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_queries("astar", batch, network=medium_network)

    def test_roadpart_needs_index(self, medium_network, batch):
        with pytest.raises(ValueError, match="needs index"):
            run_queries("roadpart", batch, network=medium_network)

    def test_network_algorithms_need_network(self, batch):
        with pytest.raises(ValueError, match="needs network"):
            run_queries("blq", batch)

    def test_run_queries_rejects_unknown_engine(self, medium_network,
                                                batch):
        for engine in ("cuda", "numpy"):
            with pytest.raises(ValueError, match="unknown engine"):
                run_queries("ble", batch, network=medium_network,
                            engine=engine)

    def test_algorithm_registry_is_complete(self):
        assert ALGORITHMS == ("roadpart", "blq", "ble", "hull")


class TestMergeQueryStats:

    def test_empty_merge(self):
        merged = merge_query_stats([])
        assert merged.seconds == 0.0
        assert merged.result_size == 0

    def test_sums_phases_and_extras(self):
        a, b = QueryStats(), QueryStats()
        a.algorithm = b.algorithm = "RoadPart"
        a.seconds, b.seconds = 1.0, 2.0
        a.phases["window"], b.phases["window"] = 0.25, 0.5
        b.phases["bridge-domains"] = 0.125
        a.result_size, b.result_size = 10, 20
        a.extras["b"], b.extras["b"] = 3, 4
        a.extras["note"] = "not numeric"
        merged = merge_query_stats([a, b])
        assert merged.algorithm == "RoadPart"
        assert merged.seconds == 3.0
        assert merged.phases == {"window": 0.75, "bridge-domains": 0.125}
        assert merged.result_size == 30
        assert merged.extras["b"] == 7
        assert "note" not in merged.extras

    def test_gauges_aggregate_not_sum(self):
        # BL-E's radius is a per-query gauge: summing it across a batch
        # (the old behaviour) produced a meaningless total.
        a, b, c = QueryStats(), QueryStats(), QueryStats()
        a.extras["radius"] = 2.0
        b.extras["radius"] = 6.0
        c.extras["radius"] = 4.0
        merged = merge_query_stats([a, b, c])
        assert "radius" not in merged.extras
        assert merged.extras["radius_min"] == 2.0
        assert merged.extras["radius_max"] == 6.0
        assert merged.extras["radius_mean"] == 4.0

    def test_identity_extras_dropped(self):
        # A vertex id is neither a count nor a gauge; any aggregate of
        # it is nonsense, so the merge drops it entirely.
        a, b = QueryStats(), QueryStats()
        a.extras["center_vertex"] = 12
        b.extras["center_vertex"] = 980
        merged = merge_query_stats([a, b])
        assert not any(k.startswith("center_vertex")
                       for k in merged.extras)

    def test_ble_batch_merge_end_to_end(self, medium_network):
        queries = [DPSQuery.q_query(window_query(medium_network, 0.2,
                                                 seed=s))
                   for s in (41, 42, 43)]
        outcome = run_queries("ble", queries, network=medium_network,
                              collect_stats=True)
        radii = [qs.extras["radius"] for qs in outcome.per_query]
        assert outcome.stats.extras["radius_min"] == min(radii)
        assert outcome.stats.extras["radius_max"] == max(radii)
        assert outcome.stats.extras["radius_mean"] \
            == pytest.approx(sum(radii) / len(radii))
        assert "radius" not in outcome.stats.extras
        assert outcome.stats.extras["sssp_rounds"] == len(queries)
