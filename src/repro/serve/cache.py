"""LRU cache of DPS answers for the serving daemon.

Every DPS algorithm in this repo is a deterministic function of
``(algorithm, S, T, engine, deadline/fallback policy)`` over a fixed
network and index -- re-running a query can only reproduce the same
vertex set.  That makes caching *trivially correct*: a hit returns the
exact bytes a fresh computation would have produced (the daemon caches
the canonical serialised answer, so "byte-identical" is literal and is
pinned by ``tests/test_serve_daemon.py``).

Keys come from :func:`canonical_key`: query sets are sorted (a
``frozenset`` iterates in hash order, which must never leak into cache
identity), and the answer-shaping parameters are included so e.g. a
deadline-capped request can never serve an uncapped answer.

The cache is a plain ``OrderedDict`` LRU under one lock (the daemon is
threaded), with monotone hit/miss/eviction counters exported through
``/metrics``.  Failures are never cached -- they carry timings and may
be transient.

Next to the entries it keeps *byte-repeat aliases*: raw request body ->
``(canonical key, resolved engine)``, recorded for every body answered
200.  Equal bytes are an equal request (the body carries the algorithm,
the sets, the engine, the deadline and the fallback; the daemon's
defaults and oracle policy are fixed for its lifetime), so
:meth:`ResultCache.get_raw` may answer a repeat before any JSON decode.
It reads, bumps and counts the canonical entry exactly as :meth:`get`
would, and an alias whose entry was evicted is dropped and answers
nothing: hit, miss and eviction counts and the LRU order stay those of
the canonical cache alone.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.core.dps import DPSQuery

#: Largest request body kept as a byte-repeat alias.  ``json.dumps``
#: spends 7 bytes on a five-digit vertex id (the id, a comma and a
#: space), so 64 KiB holds about 9,400 ids, several times the largest
#: window query on a 12k-vertex network, and ``capacity`` aliases hold
#: at most ``capacity`` x 64 KiB of body bytes.
MAX_ALIAS_BYTES = 64 * 1024


def canonical_key(algorithm: str, query: DPSQuery, *,
                  engine: str = "flat",
                  deadline_ms: Optional[float] = None,
                  fallback: Sequence[str] = (),
                  oracle: str = "auto") -> Tuple[Hashable, ...]:
    """Build the cache key of one request.

    Two requests collapse to one entry exactly when every answer-shaping
    input matches: the algorithm, the *sorted* source and target sets
    (so ``S=[3,1]`` and ``S=[1,3]`` are one query), the engine, the
    deadline/fallback policy (a blown deadline changes which algorithm
    answers, so policy is identity, not metadata), and the oracle
    policy.  The DPS vertex set is oracle-invariant by construction,
    but the answer's *stats* payload is not (``oracle_hits`` /
    ``oracle_fallbacks`` appear only on oracle-answered requests), so
    oracle policy is part of cache identity too.

    A Q query (one set object on both sides) is sorted once and the
    tuple reused for T; the key equals the one two sorts would build.
    """
    sources = tuple(sorted(query.sources))
    targets = (sources if query.targets is query.sources
               else tuple(sorted(query.targets)))
    return (algorithm,
            sources,
            targets,
            engine,
            deadline_ms,
            tuple(fallback),
            oracle)


class ResultCache:
    """Thread-safe LRU with hit/miss/eviction counters.

    ``capacity`` bounds the entry count and, separately, the alias
    count (``0`` disables caching while keeping the counters live,
    which is how ``--cache-size 0`` turns the feature off without a
    second code path).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[Hashable, ...], bytes]" = \
            OrderedDict()
        self._aliases: "OrderedDict[bytes, Tuple[Tuple[Hashable, ...], str]]" \
            = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple[Hashable, ...]) -> Optional[bytes]:
        """Return the cached answer bytes, bumping recency, or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def get_raw(self, body: bytes) -> Optional[Tuple[bytes, str]]:
        """Answer a byte repeat of a body answered before: ``(answer
        bytes, engine)``, bumping recency and counting a hit exactly as
        :meth:`get` on its canonical key would, or None -- counting
        nothing -- when no live alias matches."""
        if len(body) > MAX_ALIAS_BYTES:
            return None
        with self._lock:
            alias = self._aliases.get(body)
            if alias is None:
                return None
            key, engine = alias
            value = self._entries.get(key)
            if value is None:
                # Its entry was evicted: the full path recomputes it.
                del self._aliases[body]
                return None
            self._aliases.move_to_end(body)
            self._entries.move_to_end(key)
            self.hits += 1
            return value, engine

    def alias(self, body: bytes, key: Tuple[Hashable, ...],
              engine: str) -> None:
        """Record that ``body`` was answered 200 from ``key`` by
        ``engine``; the least recently used alias beyond ``capacity``
        is dropped, and a body over :data:`MAX_ALIAS_BYTES` is not
        kept."""
        if self.capacity == 0 or len(body) > MAX_ALIAS_BYTES:
            return
        with self._lock:
            self._aliases[body] = (key, engine)
            self._aliases.move_to_end(body)
            if len(self._aliases) > self.capacity:
                self._aliases.popitem(last=False)

    def put(self, key: Tuple[Hashable, ...], value: bytes) -> None:
        """Insert one answer, evicting least-recently-used overflow."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                # Deterministic answers make a re-put a no-op refresh.
                self._entries.move_to_end(key)
                return
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._aliases.clear()

    def counters(self) -> Dict[str, int]:
        """Snapshot of the monotone counters plus the current size."""
        with self._lock:
            return {
                "cache_hits": self.hits,
                "cache_misses": self.misses,
                "cache_evictions": self.evictions,
                "cache_size": len(self._entries),
            }
