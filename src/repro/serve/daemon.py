"""Long-lived DPS query daemon: HTTP serving over a warm index.

``repro.serve.run_queries`` answers one batch and exits -- every
invocation re-reads the network, re-parses the index and throws away
its warm scratch arenas.  This module keeps all of that resident:

- the :class:`RoadPartIndex` is loaded **once** (ideally from the
  binary mmap layout of :mod:`repro.core.roadpart.binfmt`, so several
  daemon processes on one host -- or fork workers -- share the index
  pages through the OS page cache, zero-copy);
- the network's CSR arrays and the arena pool are built at startup and
  stay warm, so steady-state queries allocate nothing;
- each request runs through the same deadline/fallback/fault machinery
  as the batch driver (``_answer_one``), so the PR 4 semantics --
  budgets, graceful degradation, structured failures, deterministic
  injection -- hold per HTTP request too;
- deterministic answers are cached by
  :class:`~repro.serve.cache.ResultCache` keyed on the canonicalized
  ``(algorithm, S, T, engine, deadline, fallback)``; a hit returns the
  *same bytes* a computation would (the cache stores the canonical
  serialised body).

Endpoints (full request/response contracts in docs/serving.md):

``POST /query``
    JSON body ``{"algorithm": ..., "Q": [...]}`` (or ``"S"``/``"T"``),
    optional ``"deadline_ms"`` / ``"fallback"``.  200 with the answer
    body on success (``X-Repro-Cache: hit|miss`` tells you which path
    answered; ``X-Repro-Engine`` / ``X-Repro-Oracle`` name the resolved
    engine and oracle), 400 for malformed requests or a malformed
    ``Content-Length``, 413 for a body over :data:`MAX_BODY_BYTES`,
    504 for an exhausted deadline cascade, 500 for any other query
    failure.
``GET /healthz``
    Liveness + a small status document.
``GET /metrics``
    Prometheus-text counters: request/failure/fallback totals, cache
    hit/miss/eviction counters, latency quantiles over a recent
    window, per-layer latency histograms, and the merged
    :mod:`repro.obs` engine counters of every *computed* answer (cache
    hits deliberately contribute nothing but
    ``repro_cache_hits_total`` -- see
    :class:`~repro.serve.StatsAccumulator`).

Transport: the module reads HTTP/1.1 itself (:class:`_Handler`): the
request line and headers are read line by line under the limits of
:data:`MAX_LINE_BYTES` and :data:`MAX_HEADER_LINES`, and every request
it refuses gets a typed JSON error through :meth:`DPSDaemon.reject`.
Every response leaves in one send (status line, headers and body in
one buffer) on a TCP_NODELAY socket, so a keep-alive client never
waits on its delayed-ACK timer, and a connection that stays silent for
:data:`HANDLER_TIMEOUT_S` frees its handler thread.

Concurrency: the server is the stdlib ``socketserver.ThreadingTCPServer``
(one thread per connection); query *compute* is serialised by a lock
because the scratch-arena pool is per-process state and pure-Python
compute holds the GIL anyway.  Cache hits bypass the lock entirely.
Scale-out is processes, not threads: several daemons behind any TCP
balancer, sharing one mmap-loaded index.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dps import DPSQuery, DPSResult
from repro.core.roadpart.index import RoadPartIndex
from repro.errors import RequestValidationError
from repro.graph.network import RoadNetwork
from repro.obs.export import percentile, render_metrics
from repro.obs.stats import QueryStats
from repro.serve import (
    ALGORITHMS,
    DEFAULT_FALLBACK,
    QueryFailure,
    StatsAccumulator,
    _answer_one,
)
from repro.serve.cache import ResultCache, canonical_key
from repro.serve.faults import FaultPlan
from repro.shortestpath.flat import resolve_engine

#: Latency samples kept for the /metrics quantiles (a recent window,
#: not daemon-lifetime history; count/sum cover the lifetime).
LATENCY_WINDOW = 2048

#: The quantiles /metrics exposes.
LATENCY_QUANTILES = (50.0, 95.0, 99.0)

#: The layers ``repro_request_layer_seconds`` splits a /query request
#: into, in pipeline order.  A cache hit passes only the first two.
REQUEST_LAYERS = ("parse", "cache", "lock_wait", "compute", "serialize")

#: Upper bounds (seconds) of the layer histogram buckets, 10 µs to 10 s
#: in 1-2.5-5 steps: a hit's parse and cache layers sit in the tens of
#: µs, a cold RoadPart or BL-E compute in the ms.
LAYER_BUCKETS = (1e-05, 2.5e-05, 5e-05, 0.0001, 0.00025, 0.0005, 0.001,
                 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                 2.5, 5.0, 10.0)

#: Largest /query body accepted, in bytes (a Q set of about a million
#: vertex ids).  A larger ``Content-Length`` is answered 413 before any
#: of the body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest request line or header line read, line end included, and the
#: most header lines one request may carry: the limits ``http.server``
#: applied.  A longer request line is answered 414; a longer header
#: line, or more of them, 431.
MAX_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

#: Seconds a handler thread waits on a silent connection -- a body that
#: never arrives, or an idle keep-alive client -- before it closes the
#: connection.  Far above the gaps a live client leaves between
#: requests.
HANDLER_TIMEOUT_S = 30.0

#: ``# TYPE`` declarations for the exposition.
_METRIC_TYPES = {
    "repro_uptime_seconds": "gauge",
    "repro_requests_total": "counter",
    "repro_rejected_total": "counter",
    "repro_failures_total": "counter",
    "repro_fallbacks_total": "counter",
    "repro_cache_hits_total": "counter",
    "repro_cache_misses_total": "counter",
    "repro_cache_evictions_total": "counter",
    "repro_cache_size": "gauge",
    "repro_request_latency_seconds": "summary",
    "repro_request_layer_seconds": "histogram",
    "repro_computed_seconds_total": "counter",
    "repro_phase_seconds_total": "counter",
    "repro_build_info": "gauge",
}


def _bad_deadline(value) -> bool:
    """True unless ``value`` is a positive, finite number of ms.
    ``json`` reads ``NaN`` and ``Infinity``, and a NaN budget never
    expires; the float-max bound also keeps a huge JSON integer from
    overflowing the conversion to seconds."""
    return (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value <= sys.float_info.max)


@dataclass
class _Request:
    """One validated /query request."""

    algorithm: str
    query: DPSQuery
    deadline_ms: Optional[float]
    fallback: Tuple[str, ...]
    engine: str

    @property
    def deadline_s(self) -> Optional[float]:
        return (self.deadline_ms / 1000.0
                if self.deadline_ms is not None else None)


def _canonical_body(result: DPSResult,
                    fallback_used: Optional[str]) -> bytes:
    """Serialise one answer as canonical bytes.

    Sorted keys, sorted vertices, no whitespace, no timings -- the body
    is a pure function of the canonical query key, which is what makes
    cached and computed responses byte-identical.
    """
    payload = {
        "algorithm": result.algorithm,
        "fallback_used": fallback_used,
        "size": result.size,
        "vertices": sorted(result.vertices),
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


class DPSDaemon:
    """The serving daemon's state and lifecycle.

    Construct with a network (and an index for RoadPart), then either
    :meth:`start` a background serving thread (tests, the arrival-rate
    bench) or let the CLI drive :meth:`start`/``wait``/:meth:`stop`
    around signal handlers.  ``faults`` threads a deterministic
    :class:`FaultPlan` into request handling, keyed by request sequence
    number -- the HTTP equivalent of ``bench throughput --inject``
    (``die_at`` is inert in-process by its parent-pid guard; use
    ``raise_at``/``delay_at``).
    """

    def __init__(self, network: RoadNetwork,
                 index: Optional[RoadPartIndex] = None, *,
                 algorithm: str = "roadpart",
                 engine: str = "flat",
                 oracle: str = "auto",
                 deadline_ms: Optional[float] = None,
                 fallback: Optional[Sequence[str]] = None,
                 cache_size: int = 256,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 faults: Optional[FaultPlan] = None,
                 verbose: bool = False) -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from"
                f" {ALGORITHMS}")
        if algorithm == "roadpart" and index is None:
            raise ValueError("algorithm 'roadpart' needs index=")
        if deadline_ms is not None and _bad_deadline(deadline_ms):
            raise ValueError(f"deadline_ms must be a positive, finite"
                             f" number, got {deadline_ms!r}")
        self.network = network
        self.index = index
        self.algorithm = algorithm
        # Validated at startup: unknown names are rejected here (the
        # CLI turns the ValueError into exit 2).
        self.engine = resolve_engine(engine)
        #: Bridge-domain oracle policy; part of every cache key (the
        #: stats payload differs with/without an oracle, so policy is
        #: answer identity -- see repro.serve.cache.canonical_key).
        self.oracle = oracle
        #: What RoadPart answers actually consult, sent as
        #: ``X-Repro-Oracle``: the index's table kind under ``auto``,
        #: else ``none``.
        self.oracle_kind = ("none" if oracle == "none" or index is None
                            or index.oracle is None
                            else index.oracle.kind)
        self.deadline_ms = deadline_ms
        self.default_fallback: Optional[Tuple[str, ...]] = (
            tuple(fallback) if fallback is not None else None)
        self.cache = ResultCache(cache_size)
        self.faults = faults
        self.verbose = verbose
        self._host = host
        self._requested_port = port
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._compute_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._seq = 0
        self.requests_total = 0
        self.rejected_total = 0
        self.failures_total = 0
        self.fallbacks_total = 0
        self._latency_window: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self._latency_count = 0
        self._latency_sum = 0.0
        # Per layer: non-cumulative bucket counts (the last is +Inf) and
        # the summed seconds.
        self._layer_buckets = [[0] * (len(LAYER_BUCKETS) + 1)
                               for _ in REQUEST_LAYERS]
        self._layer_sums = [0.0] * len(REQUEST_LAYERS)
        self._accumulator = StatsAccumulator()
        self._started_at = time.monotonic()
        # Warm start: CSR arrays + arena pool exist before the first
        # request, so steady-state queries allocate nothing.
        network.csr()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("daemon not started")
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> int:
        """Bind the socket and serve from a background thread; returns
        the bound port (request ``port=0`` for an ephemeral one)."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        server = _Server((self._host, self._requested_port), _Handler)
        server.dps_daemon = self
        self._server = server
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=server.serve_forever,
                                        name="repro-serve",
                                        daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight
        handlers, close the socket.  Idempotent."""
        server, thread = self._server, self._thread
        if server is None:
            return
        self._server = None
        self._thread = None
        server.shutdown()
        server.server_close()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    # -- request validation -------------------------------------------

    def parse_request(self, body: bytes) -> _Request:
        """Decode and validate one /query body.

        Raises :class:`~repro.errors.RequestValidationError` for every
        defect, with a message that names the offending field.
        """
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestValidationError(
                f"request body is not valid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise RequestValidationError(
                f"request body must be a JSON object, got"
                f" {type(payload).__name__}")
        algorithm = payload.get("algorithm", self.algorithm)
        if algorithm not in ALGORITHMS:
            raise RequestValidationError(
                f"unknown algorithm {algorithm!r}; choose from"
                f" {ALGORITHMS}")
        raw_engine = payload.get("engine")
        if raw_engine is None:
            engine = self.engine
        else:
            try:
                engine = resolve_engine(raw_engine)
            except ValueError as exc:
                raise RequestValidationError(str(exc)) from exc
        if algorithm == "roadpart" and self.index is None:
            raise RequestValidationError(
                "algorithm 'roadpart' needs a daemon started with an"
                " index")
        query = self._parse_query_sets(payload)
        try:
            query.validate_against(self.network)
        except ValueError as exc:
            raise RequestValidationError(str(exc)) from exc
        deadline_ms = payload.get("deadline_ms", self.deadline_ms)
        if deadline_ms is not None and _bad_deadline(deadline_ms):
            raise RequestValidationError(
                f"deadline_ms must be a positive, finite number, got"
                f" {deadline_ms!r}")
        raw_fallback = payload.get("fallback")
        if raw_fallback is None:
            if self.default_fallback is not None:
                fallback = self.default_fallback
            else:
                fallback = (DEFAULT_FALLBACK[algorithm]
                            if deadline_ms is not None else ())
        else:
            if (not isinstance(raw_fallback, list)
                    or not all(isinstance(n, str) for n in raw_fallback)):
                raise RequestValidationError(
                    "fallback must be a list of algorithm names")
            fallback = tuple(raw_fallback)
        for name in fallback:
            if name not in ALGORITHMS:
                raise RequestValidationError(
                    f"unknown fallback algorithm {name!r}; choose from"
                    f" {ALGORITHMS}")
            if name == "roadpart" and self.index is None:
                raise RequestValidationError(
                    "fallback 'roadpart' needs a daemon started with"
                    " an index")
        return _Request(algorithm, query, deadline_ms, fallback, engine)

    def _parse_query_sets(self, payload: Dict) -> DPSQuery:
        def id_list(key: str) -> List[int]:
            raw = payload.get(key)
            # One C-level pass over the element types: json.loads yields
            # exact ints, and bool is a type of its own, so this admits
            # the same lists as isinstance(v, int) and not bool.
            if (not isinstance(raw, list) or not raw
                    or set(map(type, raw)) != {int}):
                raise RequestValidationError(
                    f"{key!r} must be a non-empty list of vertex ids")
            return raw

        has_q = "Q" in payload
        has_st = "S" in payload or "T" in payload
        if has_q and has_st:
            raise RequestValidationError(
                "pass either 'Q' or 'S'+'T', not both")
        if has_q:
            return DPSQuery.q_query(id_list("Q"))
        if "S" in payload and "T" in payload:
            return DPSQuery.st_query(id_list("S"), id_list("T"))
        raise RequestValidationError(
            "request needs a query: 'Q' for Q-DPS or both 'S' and 'T'")

    # -- request execution --------------------------------------------

    def handle_query(self, body: bytes,
                     ) -> Tuple[int, bytes, Dict[str, str]]:
        """Answer one /query body: ``(status, response_bytes, headers)``.

        This is the whole request pipeline minus the socket, so tests
        and the HTTP handler share it verbatim.  Every response carries
        ``X-Repro-Engine`` and ``X-Repro-Oracle``; accepted requests add
        ``X-Repro-Cache``.

        A byte repeat of a body answered 200 whose entry is still cached
        is answered from :meth:`ResultCache.get_raw` before any decode:
        the same bytes, headers and counts as the full path, with its
        ``parse`` layer observed as 0.
        """
        started = time.perf_counter()
        repeat = self.cache.get_raw(body)
        raw_done = time.perf_counter()
        if repeat is not None:
            cached, engine = repeat
            self._note_request((0.0, raw_done - started))
            return 200, cached, {"X-Repro-Cache": "hit",
                                 "X-Repro-Engine": engine,
                                 "X-Repro-Oracle": self.oracle_kind}
        try:
            request = self.parse_request(body)
        except RequestValidationError as exc:
            return self.reject(400, str(exc))
        parsed = time.perf_counter()
        key = canonical_key(request.algorithm, request.query,
                            engine=request.engine,
                            deadline_ms=request.deadline_ms,
                            fallback=request.fallback,
                            oracle=self.oracle)
        cached = self.cache.get(key)
        if cached is not None:
            self.cache.alias(body, key, request.engine)
        looked_up = time.perf_counter()
        # The cache layer: both lookups (and the put, on a miss).
        cache_s = raw_done - started + looked_up - parsed
        if cached is not None:
            self._note_request((parsed - raw_done, cache_s))
            return 200, cached, {"X-Repro-Cache": "hit",
                                 "X-Repro-Engine": request.engine,
                                 "X-Repro-Oracle": self.oracle_kind}
        with self._compute_lock:
            locked = time.perf_counter()
            seq = self._seq
            self._seq += 1
            result, qstats, used = _answer_one(
                request.algorithm, self.network, self.index,
                request.query, request.engine, True,
                deadline_s=request.deadline_s,
                fallback=request.fallback,
                faults=self.faults, qindex=seq,
                oracle=self.oracle)
            computed = time.perf_counter()
        failed = isinstance(result, QueryFailure)
        if failed:
            status = 504 if result.error_type == "DeadlineExceeded" else 500
            response = _error_body(result.error_type, result.message,
                                   algorithm=result.algorithm,
                                   elapsed=result.elapsed)
        else:
            status, response = 200, _canonical_body(result, used)
        serialized = time.perf_counter()
        if not failed:
            self.cache.put(key, response)
            self.cache.alias(body, key, request.engine)
        done = time.perf_counter()
        self._note_request(
            (parsed - raw_done, cache_s + done - serialized,
             locked - looked_up, computed - locked, serialized - computed),
            qstats=None if failed else qstats, failure=failed,
            fell_back=used is not None)
        return status, response, {"X-Repro-Cache": "miss",
                                  "X-Repro-Engine": request.engine,
                                  "X-Repro-Oracle": self.oracle_kind}

    def reject(self, status: int, message: str,
               ) -> Tuple[int, bytes, Dict[str, str]]:
        """Count one rejected /query request (``repro_rejected_total``)
        and build its ``RequestValidationError`` response."""
        with self._metrics_lock:
            self.rejected_total += 1
        return (status, _error_body("RequestValidationError", message),
                {"X-Repro-Engine": self.engine,
                 "X-Repro-Oracle": self.oracle_kind})

    def _note_request(self, layers: Sequence[float], *,
                      qstats: Optional[QueryStats] = None,
                      failure: bool = False,
                      fell_back: bool = False) -> None:
        """Record one accepted request; ``layers`` holds the seconds of
        the leading :data:`REQUEST_LAYERS` it passed through, which add
        up to its latency."""
        latency = sum(layers)
        with self._metrics_lock:
            self.requests_total += 1
            self.failures_total += int(failure)
            self.fallbacks_total += int(fell_back)
            self._latency_window.append(latency)
            self._latency_count += 1
            self._latency_sum += latency
            for i, seconds in enumerate(layers):
                self._layer_buckets[i][bisect_left(LAYER_BUCKETS,
                                                   seconds)] += 1
                self._layer_sums[i] += seconds
            if qstats is not None:
                # Computed answers only: a cache hit ran no phases and
                # no searches, so it must not re-sum stored counters
                # into the merged totals (its record is
                # repro_cache_hits_total).
                self._accumulator.add(qstats)

    # -- status documents ---------------------------------------------

    def health(self) -> Dict[str, object]:
        with self._metrics_lock:
            requests = self.requests_total
        return {
            "status": "ok",
            "algorithm": self.algorithm,
            "engine": self.engine,
            "oracle": self.oracle,
            "network_vertices": self.network.num_vertices,
            "index_loaded": self.index is not None,
            "uptime_seconds": round(time.monotonic() - self._started_at,
                                    3),
            "requests_total": requests,
        }

    def render_metrics(self) -> str:
        """The /metrics document (Prometheus text exposition)."""
        with self._metrics_lock:
            window = list(self._latency_window)
            latency_count = self._latency_count
            latency_sum = self._latency_sum
            layer_buckets = [list(b) for b in self._layer_buckets]
            layer_sums = list(self._layer_sums)
            merged = self._accumulator.snapshot()
            samples: List = [
                # Build/config identity as a constant gauge (the
                # standard Prometheus *_info idiom).
                ("repro_build_info",
                 {"algorithm": self.algorithm, "engine": self.engine,
                  "oracle": self.oracle},
                 1),
                ("repro_uptime_seconds", None,
                 time.monotonic() - self._started_at),
                ("repro_requests_total", None, self.requests_total),
                ("repro_rejected_total", None, self.rejected_total),
                ("repro_failures_total", None, self.failures_total),
                ("repro_fallbacks_total", None, self.fallbacks_total),
            ]
        cache = self.cache.counters()
        samples += [
            ("repro_cache_hits_total", None, cache["cache_hits"]),
            ("repro_cache_misses_total", None, cache["cache_misses"]),
            ("repro_cache_evictions_total", None,
             cache["cache_evictions"]),
            ("repro_cache_size", None, cache["cache_size"]),
        ]
        for q in LATENCY_QUANTILES:
            if window:
                samples.append(("repro_request_latency_seconds",
                                {"quantile": f"{q / 100:g}"},
                                percentile(window, q)))
        samples.append(("repro_request_latency_seconds_count", None,
                        latency_count))
        samples.append(("repro_request_latency_seconds_sum", None,
                        latency_sum))
        bounds = [f"{b:g}" for b in LAYER_BUCKETS] + ["+Inf"]
        for layer, buckets, seconds in zip(REQUEST_LAYERS, layer_buckets,
                                           layer_sums):
            running = 0
            for le, count in zip(bounds, buckets):
                running += count
                samples.append(("repro_request_layer_seconds_bucket",
                                {"layer": layer, "le": le}, running))
            samples.append(("repro_request_layer_seconds_sum",
                            {"layer": layer}, seconds))
            samples.append(("repro_request_layer_seconds_count",
                            {"layer": layer}, running))
        samples.append(("repro_computed_seconds_total", None,
                        merged.seconds))
        types = dict(_METRIC_TYPES)
        for name, value in merged.counters.items():
            metric = f"repro_search_{name}_total"
            types.setdefault(metric, "counter")
            samples.append((metric, None, value))
        for label, secs in merged.phases.items():
            samples.append(("repro_phase_seconds_total",
                            {"phase": label}, secs))
        return render_metrics(samples, types)


def _json_bytes(payload: Dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def _error_body(error_type: str, message: str, **extra) -> bytes:
    return _json_bytes({"error": {"type": error_type, "message": message,
                                  **extra}})


def _content_length(values: Optional[List[str]]) -> int:
    """The body length a request declares: 0 without a ``Content-Length``
    header, else its single value, which must be ASCII digits only (no
    sign, no inner spaces).  Raises RequestValidationError otherwise.
    A numeral with more digits than ``MAX_BODY_BYTES`` reads as
    ``MAX_BODY_BYTES + 1`` unconverted: ``int()`` refuses one over 4300
    digits."""
    if not values:
        return 0
    if len(values) > 1:
        raise RequestValidationError(
            f"{len(values)} Content-Length headers; send one")
    raw = values[0].strip()
    if not (raw.isascii() and raw.isdigit()):
        raise RequestValidationError(
            f"Content-Length must be a byte count in decimal digits,"
            f" got {raw!r}")
    digits = raw.lstrip("0")
    if len(digits) > len(str(MAX_BODY_BYTES)):
        return MAX_BODY_BYTES + 1
    return int(digits or "0")


#: Reason phrases of the statuses the daemon sends.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Request Entity Too Large",
    414: "Request-URI Too Long", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    504: "Gateway Timeout", 505: "HTTP Version Not Supported",
}

_SERVER = f"repro-dps/1 Python/{sys.version.split()[0]}"
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")

#: ``--verbose`` log lines escape control characters and backslashes.
_LOG_ESCAPES = str.maketrans(
    {c: f"\\x{c:02x}" for c in [*range(0x20), *range(0x7f, 0xa0)]}
    | {ord("\\"): "\\\\"})


def _http_date() -> str:
    """The current time as an RFC 9110 IMF-fixdate, for ``Date``."""
    t = time.gmtime()
    return (f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d}"
            f" {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d}"
            f" {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class _Refused(Exception):
    """A request the reader will not serve: answered ``status`` with a
    ``RequestValidationError`` body, after which the connection closes
    (what follows its head cannot be told apart from a next request)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Server(socketserver.ThreadingTCPServer):
    """One daemon thread per connection, on a reusable address."""

    allow_reuse_address = True
    daemon_threads = True
    dps_daemon: DPSDaemon


class _Handler(socketserver.StreamRequestHandler):
    """Reads the HTTP/1.1 requests of one connection, in order, and
    routes the three endpoints onto the daemon.

    The head is read line by line; a line may end in CRLF or a bare LF,
    and empty lines before a request line are skipped (RFC 9112 §2.2).
    A connection persists under HTTP/1.1 unless the client sends
    ``Connection: close``, and under HTTP/1.0 only with ``Connection:
    keep-alive``.  A stream that ends, times out or resets before a
    request is complete closes without an answer.
    """

    # TCP_NODELAY: a response that follows one still unacknowledged --
    # pipelined requests, the tail of a large body -- must not wait for
    # the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    timeout = HANDLER_TIMEOUT_S

    def handle(self) -> None:
        self.dps = self.server.dps_daemon
        self.close_connection = False
        try:
            while not self.close_connection:
                self._serve_one()
        except OSError:
            # A silent connection timing out, a reset, a client gone
            # before its answer: nothing is left to answer or report.
            pass

    def _serve_one(self) -> None:
        """Read one request and answer it, or close the connection."""
        self.requestline = ""
        try:
            fields = self._read_head()
            if fields is None:
                self.close_connection = True
                return
            length = self._body_length(fields)
        except _Refused as exc:
            status, body, headers = self.dps.reject(exc.status, str(exc))
            self._respond(status, body, {**headers, "Connection": "close"})
            return
        tokens = {token.strip().lower()
                  for value in fields.get("connection", ())
                  for token in value.split(",")}
        self.close_connection = "close" in tokens or (
            self.request_version == "HTTP/1.0"
            and "keep-alive" not in tokens)
        if self.command == "GET":
            self._get(length)
        else:
            self._post(length, fields)

    def _read_head(self) -> Optional[Dict[str, List[str]]]:
        """Read a request line and its header lines: the values of each
        header by lower-cased name, or None if the stream ends first.
        Raises :class:`_Refused` for a head this reader does not
        serve."""
        readline = self.rfile.readline
        line = readline(MAX_LINE_BYTES + 1)
        while line in (b"\r\n", b"\n"):
            line = readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _Refused(414, f"request line longer than {MAX_LINE_BYTES}"
                                f" bytes")
        if not line.endswith(b"\n"):
            return None
        self.requestline = line.decode("latin-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            raise _Refused(400, "HTTP/0.9 requests are not served"
                           if len(words) == 2 else
                           "malformed request line: send METHOD PATH"
                           " HTTP/1.1")
        self.command, self.path, version = words
        if not (len(version) == 8 and version.startswith("HTTP/")
                and version[5].isdecimal() and version[6] == "."
                and version[7].isdecimal()):
            raise _Refused(400, f"malformed HTTP version {version[:16]!r}")
        if version[5] != "1":
            raise _Refused(505 if version[5] > "1" else 400,
                           f"{version} is not served; send HTTP/1.1")
        self.request_version = version
        fields: Dict[str, List[str]] = {}
        for count in range(MAX_HEADER_LINES + 1):
            line = readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise _Refused(431, f"header line longer than"
                                    f" {MAX_LINE_BYTES} bytes")
            if not line.endswith(b"\n"):
                return None
            if line in (b"\r\n", b"\n"):
                return fields
            if count == MAX_HEADER_LINES:
                break
            name, colon, value = line.partition(b":")
            # A name is a token: no whitespace before the colon (RFC
            # 9112 §5) and no line folding (a line starting with it).
            if not (colon and name) or b" " in name or b"\t" in name:
                shown = line.rstrip(b"\r\n")[:40].decode("latin-1")
                raise _Refused(400, f"malformed header line {shown!r}:"
                                    f" send Name: value, unfolded")
            fields.setdefault(name.decode("latin-1").lower(), []).append(
                value.strip().decode("latin-1"))
        raise _Refused(431, f"more than {MAX_HEADER_LINES} header lines")

    def _body_length(self, fields: Dict[str, List[str]]) -> int:
        """The body length the request declares, once its method and
        framing are ones this reader serves."""
        if self.command not in ("GET", "POST"):
            raise _Refused(501, "only GET and POST are served")
        if "transfer-encoding" in fields:
            raise _Refused(501, "Transfer-Encoding is not supported; send"
                                " the body with a Content-Length")
        try:
            length = _content_length(fields.get("content-length"))
        except RequestValidationError as exc:
            raise _Refused(400, str(exc)) from None
        if length > MAX_BODY_BYTES:
            raise _Refused(413, f"Content-Length exceeds MAX_BODY_BYTES"
                                f" ({MAX_BODY_BYTES} bytes)")
        return length

    def _get(self, length: int) -> None:
        # A GET's body is never read, so the connection ends with it.
        close = {"Connection": "close"} if length else None
        if self.path == "/healthz":
            self._respond(200, _json_bytes(self.dps.health()), close)
        elif self.path == "/metrics":
            self._respond(200, self.dps.render_metrics().encode("utf-8"),
                          close, content_type="text/plain; version=0.0.4")
        elif self.path == "/query":
            self._respond(405, _error_body("MethodNotAllowed",
                                           "/query takes POST"), close)
        else:
            self._respond(404, _error_body(
                "NotFound", f"no such endpoint {self.path}"), close)

    def _post(self, length: int, fields: Dict[str, List[str]]) -> None:
        if self.path != "/query":
            # The body of an unknown endpoint is never read, so the
            # connection cannot carry another request.
            self._respond(404, _error_body(
                "NotFound", f"no such endpoint {self.path}"),
                {"Connection": "close"})
            return
        if (length and self.request_version != "HTTP/1.0"
                and "100-continue" in map(str.lower,
                                          fields.get("expect", ()))):
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length)
        if len(body) < length:
            # The stream ended inside the body: nothing to answer.
            self.close_connection = True
            return
        self._respond(*self.dps.handle_query(body))

    def _respond(self, status: int, body: bytes,
                 headers: Optional[Dict[str, str]] = None,
                 content_type: str = "application/json") -> None:
        """Write the whole response -- status line, headers and body --
        with one send.  Written apart, the body of a keep-alive response
        waits for the client's delayed ACK."""
        if self.dps.verbose:
            t = time.localtime()
            message = f'"{self.requestline}" {status} {len(body)}'
            sys.stderr.write(
                f"{self.client_address[0]} - - [{t.tm_mday:02d}/"
                f"{_MONTHS[t.tm_mon - 1]}/{t.tm_year:04d} {t.tm_hour:02d}:"
                f"{t.tm_min:02d}:{t.tm_sec:02d}]"
                f" {message.translate(_LOG_ESCAPES)}\n")
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                f"Server: {_SERVER}\r\nDate: {_http_date()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n")
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
            if name == "Connection" and value == "close":
                self.close_connection = True
        self.connection.sendall((head + "\r\n").encode("latin-1") + body)
