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
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.core.dps import DPSQuery


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

    ``capacity`` bounds the entry count (``0`` disables caching while
    keeping the counters live, which is how ``--cache-size 0`` turns
    the feature off without a second code path).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[Hashable, ...], bytes]" = \
            OrderedDict()
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

    def counters(self) -> Dict[str, int]:
        """Snapshot of the monotone counters plus the current size."""
        with self._lock:
            return {
                "cache_hits": self.hits,
                "cache_misses": self.misses,
                "cache_evictions": self.evictions,
                "cache_size": len(self._entries),
            }
