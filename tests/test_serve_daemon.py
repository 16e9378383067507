"""The serving daemon: lifecycle, endpoint contracts, cache
byte-identity, honest metrics, and fault containment over HTTP.

Most tests talk to one module-scoped in-process daemon over real
sockets (the full request path minus nothing); the SIGTERM lifecycle
test runs ``python -m repro serve`` as a subprocess, because graceful
signal shutdown only exists at the process level."""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.core.dps import DPSQuery
from repro.core.roadpart.index import build_index
from repro.core.roadpart.query import roadpart_dps
from repro.datasets.queries import window_query
from repro.obs.export import parse_metrics
from repro.obs.stats import QueryStats
from repro.serve import (
    COUNT_EXTRAS,
    StatsAccumulator,
    merge_query_stats,
)
from repro.serve.daemon import DPSDaemon
from repro.serve.faults import FaultPlan


def _post(base, payload, path="/query"):
    """POST JSON; returns (status, body_bytes, headers) without raising
    on 4xx/5xx."""
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


@pytest.fixture(scope="module")
def daemon(medium_network, medium_index):
    d = DPSDaemon(medium_network, medium_index, cache_size=64)
    d.start()
    yield d
    d.stop()


@pytest.fixture(scope="module")
def base(daemon):
    return daemon.base_url


@pytest.fixture(scope="module")
def window(medium_network):
    return sorted(window_query(medium_network, 0.2, seed=44))


class TestLifecycleAndRouting:
    def test_healthz(self, base, medium_network):
        status, body, _ = _get(base, "/healthz")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["index_loaded"] is True
        assert doc["network_vertices"] == medium_network.num_vertices

    def test_unknown_path_404(self, base):
        status, body, _ = _get(base, "/nope")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "NotFound"

    def test_query_get_is_405(self, base):
        status, body, _ = _get(base, "/query")
        assert status == 405

    def test_stop_is_idempotent(self, medium_network, medium_index):
        d = DPSDaemon(medium_network, medium_index)
        d.start()
        d.stop()
        d.stop()

    def test_port_before_start_raises(self, medium_network,
                                      medium_index):
        d = DPSDaemon(medium_network, medium_index)
        with pytest.raises(RuntimeError):
            d.port

    def test_roadpart_without_index_rejected_at_construction(
            self, medium_network):
        with pytest.raises(ValueError, match="index"):
            DPSDaemon(medium_network, None, algorithm="roadpart")

    def test_daemon_rejects_unknown_engine(self, medium_network):
        for engine in ("cuda", "numpy"):
            with pytest.raises(ValueError, match="unknown engine"):
                DPSDaemon(medium_network, algorithm="ble", engine=engine)

    def test_daemon_rejects_a_bad_default_deadline(self, medium_network):
        """A default budget that is not a positive, finite number is
        refused at construction: such a daemon would answer 400 to
        every request that carries no ``deadline_ms`` of its own."""
        for deadline in (0, -5, math.nan, math.inf, True, "100"):
            with pytest.raises(ValueError, match="deadline_ms"):
                DPSDaemon(medium_network, algorithm="ble",
                          deadline_ms=deadline)


class TestQueryEndpoint:
    def test_answer_matches_direct_call(self, base, daemon, window,
                                        medium_index):
        status, body, headers = _post(base, {"Q": window})
        assert status == 200
        doc = json.loads(body)
        direct = roadpart_dps(medium_index, DPSQuery.q_query(window))
        assert doc["vertices"] == sorted(direct.vertices)
        assert doc["size"] == direct.size
        assert doc["algorithm"] == "RoadPart"
        assert doc["fallback_used"] is None

    def test_cache_hit_is_byte_identical(self, base, window):
        # Shuffled vertex order canonicalizes to the same key.
        cold_status, cold, cold_headers = _post(
            base, {"Q": list(reversed(window))})
        warm_status, warm, warm_headers = _post(base, {"Q": window})
        assert cold_status == warm_status == 200
        assert warm_headers["X-Repro-Cache"] == "hit"
        assert cold == warm  # literal byte identity, the cache contract
        # The resolved config travels in headers, never in the body (the
        # fixture index carries no table, so no oracle answers).
        for headers in (cold_headers, warm_headers):
            assert headers["X-Repro-Engine"] == "flat"
            assert headers["X-Repro-Oracle"] == "none"
        assert b"flat" not in warm

    def test_oracle_header_resolves_against_the_index(
            self, medium_network, medium_index, window):
        hub_index = build_index(medium_network, border_count=8,
                                oracle="auto")
        body = json.dumps({"Q": window}).encode("ascii")
        for index, policy, kind in ((hub_index, "auto", "hub"),
                                    (hub_index, "none", "none"),
                                    (medium_index, "auto", "none")):
            d = DPSDaemon(medium_network, index, oracle=policy)
            status, _, headers = d.handle_query(body)
            assert status == 200
            assert headers["X-Repro-Oracle"] == kind

    def test_st_query(self, base, window):
        half = len(window) // 2
        status, body, _ = _post(base, {"S": window[:half],
                                       "T": window[half:]})
        assert status == 200
        assert json.loads(body)["size"] >= len(window)

    def test_explicit_algorithm(self, base, window):
        status, body, _ = _post(base, {"algorithm": "ble",
                                       "Q": window[:4]})
        assert status == 200
        assert json.loads(body)["algorithm"] == "BL-E"


class TestRequestValidation:
    @pytest.mark.parametrize("payload,fragment", [
        ({"Q": []}, "non-empty"),
        ({"S": [1]}, "needs a query"),
        ({"Q": [1], "S": [1], "T": [2]}, "not both"),
        ({"algorithm": "magic", "Q": [1]}, "unknown algorithm"),
        ({"Q": [1, "x"]}, "vertex ids"),
        ({"Q": [1], "deadline_ms": -5}, "deadline_ms"),
        ({"Q": [1], "fallback": "ble"}, "list of algorithm names"),
        ({"Q": [1], "fallback": ["warp"]}, "unknown fallback"),
        ({"Q": [10 ** 9]}, "outside the network"),
        # json reads NaN and Infinity; a NaN budget would never expire.
        ({"Q": [1], "deadline_ms": math.nan}, "deadline_ms"),
        ({"Q": [1], "deadline_ms": math.inf}, "deadline_ms"),
        ({"Q": [1], "deadline_ms": 10 ** 400}, "deadline_ms"),
    ])
    def test_bad_requests_are_400(self, base, payload, fragment):
        status, body, headers = _post(base, payload)
        assert status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "RequestValidationError"
        assert fragment in error["message"]
        assert headers["X-Repro-Engine"] == "flat"
        assert "X-Repro-Cache" not in headers

    def test_daemon_request_engine_field(self, medium_network, window):
        daemon = DPSDaemon(medium_network, algorithm="ble", cache_size=0)
        for name in ("cuda", "numpy"):
            bad = json.dumps({"Q": window, "engine": name}).encode()
            status, body, _ = daemon.handle_query(bad)
            assert status == 400
            assert b"unknown engine" in body
        good = json.dumps({"Q": window, "engine": "dict"}).encode()
        status, body_dict, _ = daemon.handle_query(good)
        assert status == 200
        default = json.dumps({"Q": window}).encode()
        status, body_default, _ = daemon.handle_query(default)
        assert status == 200
        assert body_dict == body_default  # engines agree on the answer

    def test_not_json_is_400(self, base, daemon):
        status, body, headers = daemon.handle_query(b"{nope")
        assert status == 400
        assert b"not valid JSON" in body

    def test_rejections_counted_separately(self, base, daemon):
        before = parse_metrics(daemon.render_metrics())
        _post(base, {"Q": []})
        after = parse_metrics(daemon.render_metrics())
        assert after["repro_rejected_total"] \
            == before["repro_rejected_total"] + 1
        assert after["repro_requests_total"] \
            == before["repro_requests_total"]


class TestMetricsHonesty:
    """The satellite fix pinned: a cache hit must not re-sum phase or
    engine counters into the merged totals -- it shows up only in
    ``repro_cache_hits_total``."""

    def test_cache_hit_leaves_computed_counters_untouched(
            self, base, daemon, medium_network):
        window = sorted(window_query(medium_network, 0.15, seed=91))
        _post(base, {"Q": window})  # compute (miss)
        mid = parse_metrics(daemon.render_metrics())
        status, _, headers = _post(base, {"Q": window})  # hit
        assert status == 200 and headers["X-Repro-Cache"] == "hit"
        after = parse_metrics(daemon.render_metrics())
        assert after["repro_cache_hits_total"] \
            == mid["repro_cache_hits_total"] + 1
        assert after["repro_requests_total"] \
            == mid["repro_requests_total"] + 1
        for key, value in mid.items():
            if key.startswith("repro_search_") \
                    or key.startswith("repro_phase_seconds_total"):
                assert after[key] == value, (
                    f"{key} changed on a cache hit: stored stats were"
                    f" re-summed")

    def test_metrics_counts_match_traffic(self, medium_network,
                                          medium_index):
        d = DPSDaemon(medium_network, medium_index, cache_size=8)
        d.start()
        try:
            base = d.base_url
            windows = [sorted(window_query(medium_network, 0.15,
                                           seed=s)) for s in (1, 2)]
            for w in windows + windows + windows:  # 2 misses, 4 hits
                status, _, _ = _post(base, {"Q": w})
                assert status == 200
            assert _post(base, {"Q": []})[0] == 400
            metrics = parse_metrics(d.render_metrics())
            assert metrics["repro_requests_total"] == 6
            assert metrics["repro_rejected_total"] == 1
            assert metrics["repro_cache_misses_total"] == 2
            assert metrics["repro_cache_hits_total"] == 4
            assert metrics["repro_failures_total"] == 0
            assert metrics["repro_request_latency_seconds_count"] == 6
            assert metrics['repro_request_latency_seconds{quantile="0.5"}'] \
                > 0.0
            # Hits pass parse and cache only; a rejected request passes
            # none of the layers.
            for layer, count in (("parse", 6), ("cache", 6),
                                 ("lock_wait", 2), ("compute", 2),
                                 ("serialize", 2)):
                assert metrics["repro_request_layer_seconds_count"
                               f'{{layer="{layer}"}}'] == count
                assert metrics["repro_request_layer_seconds_bucket"
                               f'{{layer="{layer}",le="+Inf"}}'] == count
                assert metrics["repro_request_layer_seconds_sum"
                               f'{{layer="{layer}"}}'] > 0.0
        finally:
            d.stop()


class TestFaultsOverHTTP:
    """The PR 4 blast-radius contract holds per HTTP request: a faulted
    request fails or degrades; every other answer is byte-identical to
    a fault-free daemon's."""

    def test_injected_exception_blast_radius(self, medium_network,
                                             medium_index, base):
        windows = [sorted(window_query(medium_network, 0.18, seed=s))
                   for s in (61, 62, 63)]
        clean = [_post(base, {"Q": w}) for w in windows]
        plan = FaultPlan(raise_at={1: "injected over HTTP"})
        d = DPSDaemon(medium_network, medium_index, faults=plan)
        d.start()
        try:
            faulted = [_post(d.base_url, {"Q": w}) for w in windows]
        finally:
            d.stop()
        # Request 1 (the daemon's second computed query) fails
        # structurally ...
        assert faulted[1][0] == 500
        error = json.loads(faulted[1][1])["error"]
        assert error["type"] == "InjectedFault"
        assert error["message"] == "injected over HTTP"
        # ... and the blast radius is exactly that request.
        for i in (0, 2):
            assert faulted[i][0] == 200
            assert faulted[i][1] == clean[i][1]

    def test_delay_with_deadline_falls_back(self, medium_network,
                                            medium_index):
        plan = FaultPlan(delay_at={0: 0.25})
        d = DPSDaemon(medium_network, medium_index, faults=plan,
                      deadline_ms=120.0)
        d.start()
        try:
            window = sorted(window_query(medium_network, 0.18, seed=71))
            status, body, _ = _post(d.base_url, {"Q": window})
            assert status == 200
            doc = json.loads(body)
            assert doc["fallback_used"] == "ble"
            assert doc["algorithm"] == "BL-E"
            metrics = parse_metrics(d.render_metrics())
            assert metrics["repro_fallbacks_total"] == 1
        finally:
            d.stop()

    def test_exhausted_deadline_is_504(self, medium_network,
                                       medium_index):
        plan = FaultPlan(delay_at={0: 0.25})
        d = DPSDaemon(medium_network, medium_index, faults=plan,
                      deadline_ms=120.0, fallback=())
        d.start()
        try:
            window = sorted(window_query(medium_network, 0.18, seed=72))
            status, body, _ = _post(d.base_url, {"Q": window})
            assert status == 504
            error = json.loads(body)["error"]
            assert error["type"] == "DeadlineExceeded"
            metrics = parse_metrics(d.render_metrics())
            assert metrics["repro_failures_total"] == 1
        finally:
            d.stop()

    def test_failures_are_not_cached(self, medium_network,
                                     medium_index):
        """The first (faulted) attempt fails; the retry of the same
        canonical query must recompute, not replay the failure."""
        plan = FaultPlan(raise_at={0: "first attempt only"})
        d = DPSDaemon(medium_network, medium_index, faults=plan)
        d.start()
        try:
            window = sorted(window_query(medium_network, 0.18, seed=73))
            first, _, _ = _post(d.base_url, {"Q": window})
            assert first == 500
            second, body, headers = _post(d.base_url, {"Q": window})
            assert second == 200
            assert headers["X-Repro-Cache"] == "miss"
            assert json.loads(body)["size"] > 0
        finally:
            d.stop()


class TestStatsAccumulator:
    """The merge-rule fix: cache counters are summed counts, never
    min/max/mean gauges, and incremental accumulation agrees with the
    one-shot merge."""

    def _qstats(self, radius, cache_hits):
        qs = QueryStats(algorithm="BL-E", seconds=0.5,
                        phases={"sssp": 0.25}, result_size=10,
                        network_size=100)
        qs.extras = {"radius": radius, "cache_hits": cache_hits}
        return qs

    def test_cache_extras_are_counts(self):
        assert {"cache_hits", "cache_misses",
                "cache_evictions"} <= COUNT_EXTRAS

    def test_cache_hits_sum_instead_of_gauging(self):
        merged = merge_query_stats([self._qstats(2.0, 1),
                                    self._qstats(4.0, 2)])
        assert merged.extras["cache_hits"] == 3
        assert "cache_hits_mean" not in merged.extras
        # while true gauges still aggregate as min/max/mean:
        assert merged.extras["radius_min"] == 2.0
        assert merged.extras["radius_max"] == 4.0
        assert merged.extras["radius_mean"] == 3.0

    def test_incremental_equals_one_shot(self):
        stats = [self._qstats(2.0, 1), self._qstats(4.0, 0),
                 self._qstats(3.0, 2)]
        acc = StatsAccumulator()
        for qs in stats:
            acc.add(qs)
        assert acc.count == 3
        assert acc.snapshot().to_dict() \
            == merge_query_stats(stats).to_dict()

    def test_snapshot_is_independent(self):
        acc = StatsAccumulator()
        acc.add(self._qstats(2.0, 1))
        first = acc.snapshot()
        first.extras["tampered"] = 1
        first.phases["sssp"] = 99.0
        second = acc.snapshot()
        assert "tampered" not in second.extras
        assert second.phases["sssp"] == 0.25


class TestProcessLifecycle:
    def test_sigterm_shuts_down_gracefully(self, tmp_path):
        from repro.cli import main as cli_main
        prefix = tmp_path / "map"
        assert cli_main(["generate", "--kind", "grid", "--columns",
                         "10", "--rows", "10", "--seed", "5", "--out",
                         str(prefix)]) == 0
        assert cli_main(["build-index", "--graph", f"{prefix}.gr",
                         "--coords", f"{prefix}.co", "--borders", "4",
                         "--out", str(tmp_path / "map.idx")]) == 0
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--graph", f"{prefix}.gr", "--coords", f"{prefix}.co",
             "--index", str(tmp_path / "map.idx"), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            line = process.stdout.readline()
            assert "serving on http://127.0.0.1:" in line, line
            port = int(line.split("127.0.0.1:")[1].split(" ")[0])
            base = f"http://127.0.0.1:{port}"
            status, body, _ = _post(base, {"Q": [3, 50, 90]})
            assert status == 200
            assert json.loads(body)["size"] > 0
            status, _, _ = _get(base, "/healthz")
            assert status == 200
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "daemon stopped: 1 requests served" in out
