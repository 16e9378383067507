"""The daemon's own HTTP/1.1 reader: a seed corpus and a seeded
mutation fuzz, over a scripted connection and over real sockets.

Every case holds the reader's contract: each response is one send; a
200 carries the answer a fresh daemon gives the same body; anything
else is a typed JSON 4xx/5xx or a quiet close; nothing reaches stderr,
no handler thread outlives its connection, the next connection is
answered, and the /metrics deltas equal what the clients saw."""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from collections import Counter
from types import SimpleNamespace
from typing import Dict, List, Tuple

import pytest

from repro.datasets.queries import window_query
from repro.obs.export import parse_metrics
from repro.serve.daemon import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    DPSDaemon,
    _Handler,
)
from tests.test_serve_transport import _ScriptedConnection

CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

#: The error types a refused or unroutable request may carry.
ERROR_TYPES = {"RequestValidationError", "NotFound", "MethodNotAllowed"}

Response = Tuple[int, Dict[str, str], bytes]


def _post(body: bytes, version: str = "HTTP/1.1", headers=(),
          eol: bytes = b"\r\n") -> bytes:
    lines = [f"POST /query {version}".encode("ascii"), b"Host: fuzz",
             *headers, b"Content-Length: %d" % len(body)]
    return eol.join(lines) + eol + eol + body


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: fuzz\r\n\r\n".encode("ascii")


def corpus(q: bytes) -> Dict[str, Tuple[List[bytes], List[int]]]:
    """Case name -> (what a client sends, one item per send; the
    statuses it gets back, in order; 100 is the interim response)."""
    head = b"POST /query HTTP/1.1\r\nHost: fuzz\r\n"
    length = b"Content-Length: %d\r\n\r\n" % len(q)

    def framed(value: bytes) -> bytes:
        return head + b"Content-Length: " + value + b"\r\n\r\n{}"

    fields = [b"X-Field-%d: v" % i for i in range(MAX_HEADER_LINES - 2)]
    return {
        "cl-abc": ([framed(b"abc")], [400]),
        "cl-negative": ([framed(b"-5")], [400]),
        "cl-over-cap": ([framed(b"%d" % (MAX_BODY_BYTES + 1))], [413]),
        "cl-5001-digits": ([framed(b"1" + b"0" * 5000)], [413]),
        "cl-duplicate": ([framed(b"2\r\nContent-Length: 2")], [400]),
        "folded-header": ([head + b"X-Note: one\r\n two\r\n" + length + q],
                          [400]),
        "bare-lf": ([_post(q, eol=b"\n")], [200]),
        "long-request-line": (
            [b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n"],
            [414]),
        "long-header-line": (
            [head + b"X-Big: " + b"a" * MAX_LINE_BYTES + b"\r\n\r\n"],
            [431]),
        # Host, the fields and Content-Length: exactly the limit ...
        "100-header-lines": ([_post(q, headers=fields)], [200]),
        # ... and one over it.
        "101-header-lines": ([_post(q, headers=fields + [b"X-One: more"])],
                             [431]),
        "pipelined": ([_post(q) + _get("/healthz") + _post(q)],
                      [200, 200, 200]),
        "truncated-body": ([_post(q)[:-5]], []),
        "truncated-head": ([_post(q)[:30]], []),
        "split-body": ([_post(q)[:-10], _post(q)[-10:]], [200]),
        "chunked": ([head + b"Transfer-Encoding: chunked\r\n\r\n"
                     + b"%x\r\n" % len(q) + q + b"\r\n0\r\n\r\n"], [501]),
        "expect-100": ([_post(q, headers=[b"Expect: 100-continue"])],
                       [100, 200]),
        "http10": ([_post(q, "HTTP/1.0") + _get("/healthz")], [200]),
        "http10-keep-alive": (
            [_post(q, "HTTP/1.0", [b"Connection: keep-alive"])
             + _get("/healthz")], [200, 200]),
        "connection-close": ([_post(q, headers=[b"Connection: close"])
                              + _get("/healthz")], [200]),
        "http09": ([b"GET /healthz\r\n"], [400]),
        "http2": ([b"GET /healthz HTTP/2.0\r\n\r\n"], [505]),
        "head": ([b"HEAD /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n"], [501]),
        "put": ([_post(q).replace(b"POST", b"PUT", 1)], [501]),
        "space-before-colon": (
            [head + b"Content-Length : %d\r\n\r\n" % len(q) + q], [400]),
        "no-colon": ([head + b"X-Note one\r\n" + length + q], [400]),
        "bad-request-line": ([b"GARBAGE\r\n\r\n"], [400]),
        "empty-line-first": ([b"\r\n" + _get("/healthz")], [200]),
    }


#: Fragments the mutation fuzz inserts: line ends, separators, framing.
INSERTS = [b"\r\n", b"\n", b" ", b"\t", b":", b"\r\n\r\n", b"0", b"9999",
           b"\x00", b"\xff", b"Content-Length: 3\r\n",
           b"Transfer-Encoding: chunked\r\n", b"Expect: 100-continue\r\n",
           b"Connection: close\r\n", b"GET /healthz HTTP/1.1\r\n\r\n"]


def mutate(rng: random.Random, data: bytes) -> List[bytes]:
    """A byte flip, truncation or insertion of ``data``, in 1-3 sends."""
    buf = bytearray(data)
    kind = rng.randrange(3)
    if kind == 0:
        for _ in range(rng.randint(1, 3)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
    elif kind == 1:
        del buf[rng.randrange(len(buf)):]
    else:
        at = rng.randrange(len(buf) + 1)
        buf[at:at] = rng.choice(INSERTS)
    cuts = sorted(rng.sample(range(1, len(buf)),
                             min(rng.randint(0, 2), max(len(buf) - 1, 0))))
    return [bytes(buf[a:b])
            for a, b in zip([0, *cuts], [*cuts, len(buf)])]


def _one_response(raw: bytes) -> Tuple[Response, bytes]:
    """The first response in ``raw`` and what follows it."""
    if raw.startswith(CONTINUE):
        return (100, {}, b""), raw[len(CONTINUE):]
    head, sep, rest = raw.partition(b"\r\n\r\n")
    assert sep, f"incomplete response head {raw[:80]!r}"
    lines = head.decode("latin-1").split("\r\n")
    version, status, _ = lines[0].split(" ", 2)
    assert version == "HTTP/1.1"
    headers = dict(line.split(": ", 1) for line in lines[1:])
    length = int(headers["Content-Length"])
    assert len(rest) >= length, "response body cut short"
    return (int(status), headers, rest[:length]), rest[length:]


def scripted_responses(conn: _ScriptedConnection) -> List[Response]:
    """Each send must be exactly one whole response."""
    responses = []
    for raw in conn.sends:
        response, rest = _one_response(raw)
        assert rest == b"", "a send carried more than one response"
        responses.append(response)
    return responses


def stream_responses(raw: bytes) -> List[Response]:
    responses = []
    while raw:
        response, raw = _one_response(raw)
        responses.append(response)
    return responses


class Recorder:
    """Wraps a daemon's ``handle_query`` to keep every body it answered
    and its result, so each 200 can be checked against a fresh
    daemon's answer to the same bytes."""

    def __init__(self, daemon: DPSDaemon) -> None:
        self.calls: List[Tuple[bytes, Tuple[int, bytes]]] = []
        handle = daemon.handle_query

        def recorded(body: bytes):
            result = handle(body)
            self.calls.append((body, result[:2]))
            return result

        daemon.handle_query = recorded


def check_contract(responses: List[Response], tallies: Counter) -> None:
    """Per-response invariants; counts what /metrics must show."""
    for n, (status, headers, body) in enumerate(responses):
        if status == 100:
            continue
        if headers.get("Connection") == "close":
            assert n == len(responses) - 1, "answered after a close"
        if "X-Repro-Cache" in headers:
            tallies["requests"] += 1
            tallies[headers["X-Repro-Cache"]] += 1
        if status == 200:
            continue
        assert 400 <= status < 600, status
        assert headers["Content-Type"] == "application/json"
        error = json.loads(body)["error"]
        assert error["type"] in ERROR_TYPES, error
        if error["type"] == "RequestValidationError":
            tallies["rejected"] += 1
            assert "X-Repro-Engine" in headers
            assert "X-Repro-Oracle" in headers


def check_answers(recorder: Recorder, reference,
                  responses: List[Response]) -> None:
    """Every /query answer on the wire is the recorded one, and each
    recorded answer equals a fresh daemon's for the same bytes."""
    wire = [(status, body) for status, headers, body in responses
            if "X-Repro-Cache" in headers]
    answered = [result for _, result in recorder.calls
                if result[0] == 200]
    assert [w for w in wire if w[0] == 200] == answered
    for body, result in recorder.calls:
        assert reference(body) == result


def metric_deltas(before: Dict, after: Dict) -> Counter:
    def delta(name: str) -> int:
        return int(after[name] - before.get(name, 0.0))

    return Counter({"requests": delta("repro_requests_total"),
                    "rejected": delta("repro_rejected_total"),
                    "hit": delta("repro_cache_hits_total"),
                    "miss": delta("repro_cache_misses_total")})


@pytest.fixture(scope="module")
def query_body(medium_network) -> bytes:
    return json.dumps(
        {"Q": sorted(window_query(medium_network, 0.1, seed=5))}
    ).encode("ascii")


@pytest.fixture(scope="module")
def reference(medium_network, medium_index):
    """``(status, body)`` a daemon without a cache gives ``body``,
    computed afresh once per distinct body."""
    daemon = DPSDaemon(medium_network, medium_index, cache_size=0)
    answers: Dict[bytes, Tuple[int, bytes]] = {}

    def answer(body: bytes) -> Tuple[int, bytes]:
        if body not in answers:
            answers[body] = daemon.handle_query(body)[:2]
        return answers[body]

    return answer


def run_scripted(daemon: DPSDaemon, sends: List[bytes]) -> List[Response]:
    conn = _ScriptedConnection(b"".join(sends))
    _Handler(conn, ("127.0.0.1", 0), SimpleNamespace(dps_daemon=daemon))
    return scripted_responses(conn)


def _handler_threads() -> int:
    return sum("process_request_thread" in t.name
               for t in threading.enumerate())


def exchange(port: int, sends: List[bytes]) -> List[Response]:
    """Send each item in its own send, half-close, read to the end."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            for n, data in enumerate(sends):
                if n:
                    time.sleep(0.005)
                sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # refused mid-send: the answer is already on its way
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return stream_responses(b"".join(chunks))


def wait_for_handlers(baseline: int) -> None:
    deadline = time.monotonic() + 5.0
    while _handler_threads() > baseline:
        assert time.monotonic() < deadline, "a handler thread was left"
        time.sleep(0.002)


class LiveDaemon:
    """A started daemon whose connections are checked one at a time:
    the contract, the answers, no handler left, and then a fresh
    connection that must get the right answer."""

    def __init__(self, daemon: DPSDaemon, reference, body: bytes) -> None:
        self.daemon = daemon
        self.reference = reference
        self.body = body
        self.recorder = Recorder(daemon)
        self.tallies = Counter()
        daemon.start()
        self.baseline = _handler_threads()
        self.before = parse_metrics(daemon.render_metrics())

    def round(self, sends: List[bytes]) -> List[Response]:
        responses = self._exchange(sends)
        follow = self._exchange([_post(self.body)])
        assert [(s, b) for s, _, b in follow] == [self.reference(self.body)]
        return responses

    def _exchange(self, sends: List[bytes]) -> List[Response]:
        responses = exchange(self.daemon.port, sends)
        check_contract(responses, self.tallies)
        wait_for_handlers(self.baseline)
        check_answers(self.recorder, self.reference, responses)
        self.recorder.calls.clear()
        return responses

    def finish(self) -> None:
        after = parse_metrics(self.daemon.render_metrics())
        assert metric_deltas(self.before, after) == self.tallies


class TestSeedCorpus:
    @pytest.fixture(scope="class")
    def cases(self, query_body):
        return corpus(query_body)

    @pytest.mark.parametrize("case", sorted(corpus(b"{}")))
    def test_scripted(self, medium_network, medium_index, reference,
                      query_body, cases, case, capsys):
        sends, statuses = cases[case]
        daemon = DPSDaemon(medium_network, medium_index)
        recorder = Recorder(daemon)
        before = parse_metrics(daemon.render_metrics())
        responses = run_scripted(daemon, sends)
        assert [status for status, _, _ in responses] == statuses
        tallies = Counter()
        check_contract(responses, tallies)
        check_answers(recorder, reference, responses)
        after = parse_metrics(daemon.render_metrics())
        assert metric_deltas(before, after) == tallies
        for status, headers, _ in responses:
            if status >= 400:  # every corpus refusal ends its connection
                assert headers["Connection"] == "close"
        assert capsys.readouterr().err == ""

    def test_sockets(self, medium_network, medium_index, reference,
                     query_body, cases, capsys):
        """The whole corpus against one live daemon, each case on its
        own connection."""
        live = LiveDaemon(DPSDaemon(medium_network, medium_index,
                                    cache_size=8), reference, query_body)
        try:
            for case in sorted(cases):
                sends, statuses = cases[case]
                responses = live.round(sends)
                assert [s for s, _, _ in responses] == statuses, case
            live.finish()
        finally:
            live.daemon.stop()
        assert capsys.readouterr().err == ""


class TestMutationFuzz:
    """Seeded byte flips, truncations, insertions and splits of the
    corpus; the counts are fixed so the suite spends seconds here."""

    SCRIPTED = 1500
    SOCKETS = 150

    @pytest.fixture(scope="class")
    def seeds(self, query_body):
        return [b"".join(sends) for sends, _ in
                corpus(query_body).values()]

    def test_scripted(self, medium_network, medium_index, reference,
                      seeds, capsys):
        rng = random.Random(20261020)
        daemon = DPSDaemon(medium_network, medium_index, cache_size=8)
        recorder = Recorder(daemon)
        before = parse_metrics(daemon.render_metrics())
        tallies = Counter()
        for _ in range(self.SCRIPTED):
            responses = run_scripted(daemon,
                                     mutate(rng, rng.choice(seeds)))
            check_contract(responses, tallies)
            check_answers(recorder, reference, responses)
            recorder.calls.clear()
        after = parse_metrics(daemon.render_metrics())
        assert metric_deltas(before, after) == tallies
        assert capsys.readouterr().err == ""

    def test_sockets(self, medium_network, medium_index, reference,
                     seeds, query_body, capsys):
        rng = random.Random(7)
        live = LiveDaemon(DPSDaemon(medium_network, medium_index,
                                    cache_size=8), reference, query_body)
        try:
            for _ in range(self.SOCKETS):
                live.round(mutate(rng, rng.choice(seeds)))
            live.finish()
        finally:
            live.daemon.stop()
        assert capsys.readouterr().err == ""
