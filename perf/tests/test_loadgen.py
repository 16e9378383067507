"""Open-loop due-time and lateness accounting against a fake server."""

import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perf import loadgen


class _FakeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.server.delay)
        body = self.server.answer
        # Status line, headers and body in one write, so the fake server
        # adds no Nagle/delayed-ACK stall of its own.
        self.wfile.write(b"HTTP/1.1 200 OK\r\nX-Repro-Cache: miss\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))

    def log_message(self, *args) -> None:
        pass


@contextmanager
def fake_server(delay: float, answer: bytes = b'{"size":1}'):
    server = ThreadingHTTPServer((loadgen.HOST, 0), _FakeHandler)
    server.daemon_threads = True
    server.delay = delay
    server.answer = answer
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


BODIES = [b'{"Q":[%d]}' % i for i in range(20)]


def test_fast_server_is_reached_on_time():
    log = loadgen.ResponseLog()
    with fake_server(0.0) as server:
        records = loadgen.open_loop(server.server_address[1], BODIES, 50.0,
                                    log)
    assert [r.index for r in records] == list(range(20))
    assert all(r.status == 200 for r in records)
    gaps = [b.due - a.due for a, b in zip(records, records[1:])]
    assert gaps == pytest.approx([1 / 50.0] * 19)
    late = [r.lateness for r in records]
    assert None not in late  # a sender was always free in time
    assert max(late) < 0.02
    assert log.mismatches == 0 and len(log.first) == 20


def test_slow_server_waits_count_from_the_due_time():
    # Two senders, 0.1 s per request: capacity 20/s against 40/s due.
    log = loadgen.ResponseLog()
    with fake_server(0.1) as server:
        records = loadgen.open_loop(server.server_address[1], BODIES, 40.0,
                                    log)
    assert len(records) == 20
    waited = [r for r in records if r.lateness is None]
    assert len(waited) >= 15
    for r in records:
        service = r.done - r.dispatched
        assert service >= 0.09
        assert r.latency == pytest.approx((r.dispatched - r.due) + service)
    for r in waited:
        assert r.dispatched > r.due
    # The backlog grows: request 19 was due at 0.475 s but could only be
    # sent once nine earlier pairs had been served (~0.9 s).
    assert records[-1].latency > records[0].latency + 0.3


def test_closed_loop_rate_matches_service_time():
    log = loadgen.ResponseLog()
    with fake_server(0.05) as server:
        records, elapsed = loadgen.closed_loop(server.server_address[1],
                                               BODIES, 1.0, log)
    assert all(r.status == 200 for r in records)
    assert 20.0 <= len(records) / elapsed <= 41.0


def test_response_log_flags_changed_bytes():
    log = loadgen.ResponseLog()
    log.note(b"q", loadgen.Response(200, b"a", "miss"))
    log.note(b"q", loadgen.Response(200, b"a", "hit"))
    assert log.mismatches == 0
    log.note(b"q", loadgen.Response(200, b"b", "hit"))
    assert log.mismatches == 1
    assert log.first[b"q"] == b"a"
