"""The daemon's transport: one send per response, keep-alive without
the delayed-ACK stall, typed framing errors, and exact accounting under
concurrent keep-alive load.

Written apart, a response's head and body let Nagle hold the body until
the client's delayed ACK (~40 ms), so back-to-back keep-alive requests
each paid that timer.  The send count is pinned deterministically
through a scripted connection; the wall-clock tests only bound what the
stall would blow far past."""

from __future__ import annotations

import http.client
import io
import json
import random
import re
import socket
import sys
import threading
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from repro.datasets.queries import window_query
from repro.obs.export import parse_metrics
from repro.serve.daemon import (
    HANDLER_TIMEOUT_S,
    REQUEST_LAYERS,
    DPSDaemon,
    _Handler,
)


@pytest.fixture(scope="module")
def daemon(medium_network, medium_index):
    d = DPSDaemon(medium_network, medium_index, cache_size=64)
    d.start()
    yield d
    d.stop()


@pytest.fixture(scope="module")
def window(medium_network):
    return sorted(window_query(medium_network, 0.15, seed=7))


def _query_bytes(payload) -> bytes:
    return json.dumps(payload).encode("ascii")


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode("ascii") + b"\r\n" + body


class _ScriptedConnection:
    """A client connection stand-in: the handler reads the scripted
    request bytes and every send it makes is recorded."""

    def __init__(self, incoming: bytes) -> None:
        self._incoming = io.BytesIO(incoming)
        self.sends = []
        self.options = []
        self.timeout = None

    def makefile(self, mode, *args):
        assert mode == "rb", "responses must not go through a buffer"
        return self._incoming

    def settimeout(self, value):
        self.timeout = value

    def setsockopt(self, *args):
        self.options.append(args)

    def sendall(self, data):
        self.sends.append(bytes(data))


def _parse_response(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert int(headers["Content-Length"]) == len(body)
    return int(lines[0].split()[1]), headers, body


def _raw_exchange(port: int, data: bytes, timeout: float = 3.0) -> bytes:
    """Send raw bytes, then read until the daemon closes."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestOneSendPerResponse:
    def test_every_response_is_one_send(self, medium_network,
                                        medium_index, window):
        d = DPSDaemon(medium_network, medium_index)
        query = _query_bytes({"Q": window})
        conn = _ScriptedConnection(b"".join([
            _request("POST", "/query", query),            # miss
            _request("POST", "/query", query),            # hit
            _request("POST", "/query", _query_bytes({"Q": []})),
            _request("GET", "/healthz"),
            _request("GET", "/metrics"),
            _request("GET", "/nope"),
            # Its body is never read, so the connection ends here.
            _request("POST", "/nope", query),
            _request("GET", "/healthz"),
        ]))
        _Handler(conn, ("127.0.0.1", 0), SimpleNamespace(dps_daemon=d))
        responses = [_parse_response(raw) for raw in conn.sends]
        assert [status for status, _, _ in responses] \
            == [200, 200, 400, 200, 200, 404, 404]
        assert responses[-1][1]["Connection"] == "close"
        assert responses[0][1]["X-Repro-Cache"] == "miss"
        assert responses[1][1]["X-Repro-Cache"] == "hit"
        assert responses[0][2] == responses[1][2]
        assert b"repro_request_layer_seconds_count" in responses[4][2]
        # The socket options the transport relies on.
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) \
            in conn.options
        assert conn.timeout == HANDLER_TIMEOUT_S >= 10.0

    def test_back_to_back_keepalive_hits(self, daemon, window):
        """20 hits on one connection: ~0.84 s when each waited on the
        client's delayed ACK, a few ms in one send."""
        body = _query_bytes({"Q": window})
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                          timeout=10)
        try:
            conn.request("POST", "/query", body)
            conn.getresponse().read()  # fill the cache
            started = time.perf_counter()
            for _ in range(20):
                conn.request("POST", "/query", body)
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
                assert resp.getheader("X-Repro-Cache") == "hit"
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive hits took {elapsed:.3f}s"


class TestVerboseLog:
    def test_one_common_log_line_per_response(self, medium_network,
                                              medium_index, window,
                                              capsys):
        """``--verbose`` writes one common-log line per response, the
        refused ones included, with control characters escaped."""
        d = DPSDaemon(medium_network, medium_index, verbose=True)
        query = _query_bytes({"Q": window})
        conn = _ScriptedConnection(b"".join([
            _request("POST", "/query", query),
            _request("POST", "/query", query),
            _request("GET", "/healthz"),
            b"GET /\x01 HTTP/1.1\r\n\r\n",
            b"PUT /query HTTP/1.1\r\n\r\n",  # refused; the connection ends
        ]))
        _Handler(conn, ("127.0.0.1", 0), SimpleNamespace(dps_daemon=d))
        lines = capsys.readouterr().err.splitlines()
        line = re.compile(r'127\.0\.0\.1 - - \[\d\d/[A-Z][a-z]{2}/\d{4}'
                          r' \d\d:\d\d:\d\d\] "(.*)" (\d{3}) (\d+)')
        logged = [line.fullmatch(text).groups() for text in lines]
        sent = [_parse_response(raw) for raw in conn.sends]
        assert [(status, len(body)) for status, _, body in sent] \
            == [(int(code), int(size)) for _, code, size in logged]
        assert [status for status, _, _ in sent] == [200, 200, 200, 404, 501]
        assert [request for request, _, _ in logged] == [
            "POST /query HTTP/1.1", "POST /query HTTP/1.1",
            "GET /healthz HTTP/1.1", "GET /\\x01 HTTP/1.1",
            "PUT /query HTTP/1.1"]


class TestRequestFraming:
    """A body that cannot be delimited gets a typed answer and a closed
    connection, never a silent drop, a traceback or a pinned thread."""

    @pytest.mark.parametrize("length,status", [
        ("abc", 400),
        ("-5", 400),
        ("99999999", 413),
        ("1" + "0" * 5000, 413),  # beyond int()'s digit limit
        ("2\r\nContent-Length: 2", 400),  # two headers
    ], ids=["abc", "negative", "over-cap", "5001-digits", "duplicate"])
    def test_content_length_rejected(self, daemon, capsys, length,
                                     status):
        before = parse_metrics(daemon.render_metrics())
        raw = _raw_exchange(daemon.port, (
            f"POST /query HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}").encode("ascii"))
        assert raw, "connection dropped without a response"
        got, headers, body = _parse_response(raw)
        assert got == status
        assert headers["Connection"] == "close"
        assert "X-Repro-Engine" in headers
        error = json.loads(body)["error"]
        assert error["type"] == "RequestValidationError"
        if status == 413:
            assert "MAX_BODY_BYTES" in error["message"]
        after = parse_metrics(daemon.render_metrics())
        assert after["repro_rejected_total"] \
            == before["repro_rejected_total"] + 1
        assert after["repro_requests_total"] \
            == before["repro_requests_total"]
        assert capsys.readouterr().err == ""

    def test_silent_body_frees_the_thread(self, medium_network,
                                          medium_index, monkeypatch,
                                          capsys):
        """A declared body that never arrives ends with the handler
        timeout (shortened here): the connection closes, quietly."""
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        d = DPSDaemon(medium_network, medium_index)
        d.start()
        try:
            started = time.perf_counter()
            raw = _raw_exchange(d.port, (
                b"POST /query HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 50\r\n\r\n{\"Q\""))
            elapsed = time.perf_counter() - started
        finally:
            d.stop()
        assert raw == b""
        assert elapsed < 2.0
        assert capsys.readouterr().err == ""


class TestConcurrentAccounting:
    """8 keep-alive clients mixing hits, misses (the cache is small
    enough to evict) and malformed bodies: every answer to one body is
    byte-identical, and the /metrics deltas equal the clients' tallies
    exactly, layer counts included."""

    CLIENTS = 8
    REQUESTS = 150

    def test_metrics_equal_client_tallies(self, medium_network,
                                          medium_index):
        pool = []
        for k in range(12):
            vertices = sorted(window_query(medium_network,
                                           0.06 + 0.01 * (k % 6),
                                           seed=300 + k))
            algorithm = "roadpart" if k % 3 else "ble"
            pool.append(_query_bytes({"algorithm": algorithm,
                                      "Q": vertices}))
        malformed = [b"{nope", _query_bytes({"Q": []}),
                     _query_bytes({"Q": [1, True]})]
        d = DPSDaemon(medium_network, medium_index, cache_size=4)
        d.start()
        answers = defaultdict(set)
        tallies = Counter()
        lock = threading.Lock()
        errors = []

        def client(k: int) -> None:
            rng = random.Random(k)
            conn = http.client.HTTPConnection("127.0.0.1", d.port,
                                              timeout=30)
            seen = Counter()
            mine = defaultdict(set)
            try:
                for _ in range(self.REQUESTS):
                    if rng.random() < 0.1:
                        body = rng.choice(malformed)
                    else:
                        body = pool[min(int(rng.expovariate(0.35)),
                                        len(pool) - 1)]
                    conn.request("POST", "/query", body)
                    resp = conn.getresponse()
                    data = resp.read()
                    seen[resp.status] += 1
                    if resp.getheader("X-Repro-Engine") != d.engine or \
                            resp.getheader("X-Repro-Oracle") \
                            != d.oracle_kind:
                        seen["bad_headers"] += 1
                    if resp.status == 200:
                        seen[resp.getheader("X-Repro-Cache")] += 1
                        mine[body].add(data)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                conn.close()
                with lock:
                    tallies.update(seen)
                    for body, got in mine.items():
                        answers[body] |= got

        interval = sys.getswitchinterval()
        try:
            before = parse_metrics(d.render_metrics())
            sys.setswitchinterval(1e-4)
            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            after = parse_metrics(d.render_metrics())
        finally:
            sys.setswitchinterval(interval)
            d.stop()
        assert not errors, errors

        assert sum(tallies[s] for s in (200, 400)) \
            == self.CLIENTS * self.REQUESTS
        assert tallies["bad_headers"] == 0
        assert tallies["hit"] > 0 and tallies["miss"] > 0
        assert tallies[400] > 0
        assert after["repro_cache_evictions_total"] > 0
        assert all(len(got) == 1 for got in answers.values())

        def delta(name: str) -> int:
            return int(after[name] - before.get(name, 0.0))

        assert delta("repro_requests_total") == tallies[200]
        assert delta("repro_rejected_total") == tallies[400]
        assert delta("repro_cache_hits_total") == tallies["hit"]
        assert delta("repro_cache_misses_total") == tallies["miss"]
        for layer in REQUEST_LAYERS:
            want = (tallies[200] if layer in ("parse", "cache")
                    else tallies["miss"])
            name = f'repro_request_layer_seconds_count{{layer="{layer}"}}'
            assert delta(name) == want, layer
            inf = (f'repro_request_layer_seconds_bucket{{layer="{layer}"'
                   f',le="+Inf"}}')
            assert delta(inf) == want, layer

