"""Load generation against a ``repro serve`` subprocess.

The load comes from this one process: at most two sender threads, each
owning one persistent (keep-alive) HTTP connection.

- :func:`open_loop` sends request ``i`` when it is due, at
  ``t0 + i / rate``, on whichever sender is free.  Latency runs from the
  due time, so a wait for a free connection counts.  A sender that was
  free before the due time and dispatched late records its *lateness*,
  the generator's own error.
- :func:`closed_loop` sends each sender's next request as soon as its
  previous one completes, for a fixed time; completed requests per
  second is the daemon's capacity at that concurrency.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import os
import select
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.export import parse_metrics

HOST = "127.0.0.1"
#: Per-request socket timeout; a timed-out request counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: A sender sleeps until this long before a due time, then polls the
#: clock (on a 2-core VM, waking from a plain sleep dispatched ~0.15 ms
#: late at p90, polling ~0.05 ms).
SPIN_S = 0.001


@dataclass
class Response:
    status: int  #: 0 when the request raised (timeout, reset, ...)
    body: bytes
    cache: Optional[str]  #: the ``X-Repro-Cache`` header


class Client:
    """One persistent connection; reconnects after a failure."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                close: bool = False) -> Response:
        headers = {"Content-Type": "application/json"} if body else {}
        if close:
            headers["Connection"] = "close"
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    HOST, self._port, timeout=REQUEST_TIMEOUT_S)
            self._conn.request(method, path, body, headers)
            resp = self._conn.getresponse()
            data = resp.read()
            out = Response(resp.status, data, resp.getheader("X-Repro-Cache"))
        except (OSError, http.client.HTTPException):
            self.close()
            return Response(0, b"", None)
        if close:
            self.close()
        return out

    def post(self, body: bytes, close: bool = False) -> Response:
        return self.request("POST", "/query", body, close=close)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class ResponseLog:
    """First response body per request body, and a count of later
    responses whose bytes differ from it (a cache hit must return the
    bytes the computation returned)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.first: Dict[bytes, bytes] = {}
        self._digests: Dict[bytes, bytes] = {}
        self.mismatches = 0

    def note(self, request: bytes, response: Response) -> None:
        if response.status != 200:
            return
        digest = hashlib.sha256(response.body).digest()
        with self._lock:
            known = self._digests.get(request)
            if known is None:
                self._digests[request] = digest
                self.first[request] = response.body
            elif known != digest:
                self.mismatches += 1


@dataclass
class Record:
    """Timeline of one request (``perf_counter`` seconds)."""

    index: int
    due: float
    picked: float      #: when a sender took the request
    dispatched: float  #: when the request was written
    done: float
    status: int
    cache: Optional[str]

    @property
    def latency(self) -> float:
        """Seconds from due to response, waits included."""
        return self.done - self.due

    @property
    def lateness(self) -> Optional[float]:
        """Dispatch error of a sender that was free before the due time;
        None when the request had to wait for a sender."""
        if self.picked > self.due:
            return None
        return self.dispatched - self.due


def _run_senders(target, senders: int) -> None:
    threads = [threading.Thread(target=target, args=(k,), daemon=True)
               for k in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(port: int, bodies: Sequence[bytes], rate: float,
              log: ResponseLog, senders: int = 2) -> List[Record]:
    """Send ``bodies[i]`` at ``t0 + i / rate``; one record per body."""
    records: List[Optional[Record]] = [None] * len(bodies)
    counter = itertools.count()
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def sender(_k: int) -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    i = next(counter)
                if i >= len(bodies):
                    return
                due = t0 + i / rate
                picked = time.perf_counter()
                if picked < due - SPIN_S:
                    time.sleep(due - SPIN_S - picked)
                while time.perf_counter() < due:
                    time.sleep(0)  # yields the GIL to the other sender
                dispatched = time.perf_counter()
                resp = client.post(bodies[i])
                done = time.perf_counter()
                log.note(bodies[i], resp)
                records[i] = Record(i, due, picked, dispatched, done,
                                    resp.status, resp.cache)
        finally:
            client.close()

    _run_senders(sender, senders)
    return [r for r in records if r is not None]


def closed_loop(port: int, bodies: Sequence[bytes], seconds: float,
                log: ResponseLog, senders: int = 2,
                ) -> Tuple[List[Record], float]:
    """Cycle ``bodies`` from ``senders`` back-to-back clients for
    ``seconds``; returns the records and the measured interval."""
    records: List[Record] = []
    lock = threading.Lock()
    cursor = itertools.count()
    start = time.perf_counter()
    stop_at = start + seconds

    def sender(_k: int) -> None:
        client = Client(port)
        mine: List[Record] = []
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    i = next(cursor)
                body = bodies[i % len(bodies)]
                dispatched = time.perf_counter()
                resp = client.post(body)
                done = time.perf_counter()
                log.note(body, resp)
                mine.append(Record(i, dispatched, dispatched, dispatched,
                                   done, resp.status, resp.cache))
        finally:
            client.close()
            with lock:
                records.extend(mine)

    _run_senders(sender, senders)
    end = max((r.done for r in records), default=stop_at)
    records.sort(key=lambda r: r.index)
    return records, end - start


class DaemonProcess:
    """A ``python -m repro serve`` child on an ephemeral port.

    Construction returns once ``/healthz`` has answered 200;
    ``startup_s`` is the time from spawn to that answer.
    """

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 log_path: str, timeout: float = 60.0) -> None:
        started = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(list(argv), env=env,
                                         stdout=subprocess.PIPE, stderr=log,
                                         stdin=subprocess.DEVNULL)
        try:
            self.port = self._read_port(started + timeout)
            self._wait_healthy(started + timeout)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        # The CLI prints "serving on http://HOST:PORT (...)" once bound.
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(left, 0.0))
            if not ready:
                raise RuntimeError("repro serve printed no startup line")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"repro serve exited ({self.proc.poll()}) before"
                    f" serving")
            line += chunk
        text = line.decode("utf-8", "replace")
        marker = f"http://{HOST}:"
        if marker not in text:
            raise RuntimeError(f"unexpected startup line {text!r}")
        return int(text.split(marker, 1)[1].split()[0])

    def _wait_healthy(self, deadline: float) -> None:
        client = Client(self.port)
        try:
            while client.request("GET", "/healthz").status != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.002)
        finally:
            client.close()

    def metrics(self) -> Dict[str, float]:
        client = Client(self.port)
        try:
            resp = client.request("GET", "/metrics")
        finally:
            client.close()
        if resp.status != 200:
            raise RuntimeError(f"/metrics answered {resp.status}")
        return parse_metrics(resp.body.decode("utf-8"))

    def stop(self) -> None:
        """SIGTERM, then wait (escalating to SIGKILL); idempotent."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
