"""The daemon's LRU result cache: key canonicalization, LRU/eviction
behaviour, and honest counters."""

from __future__ import annotations

import pytest

from repro.core.dps import DPSQuery
from repro.serve.cache import ResultCache, canonical_key


class TestCanonicalKey:
    def test_order_independent_query_sets(self):
        a = canonical_key("roadpart", DPSQuery.q_query([3, 1, 2]))
        b = canonical_key("roadpart", DPSQuery.q_query([2, 3, 1]))
        assert a == b

    def test_st_sides_not_interchangeable(self):
        st = canonical_key("blq", DPSQuery.st_query([1], [2]))
        ts = canonical_key("blq", DPSQuery.st_query([2], [1]))
        assert st != ts

    def test_policy_is_identity(self):
        """A deadline-capped request may be answered by a fallback
        algorithm, so policy parameters must split the key -- a capped
        answer can never be served to an uncapped request."""
        query = DPSQuery.q_query([1, 2])
        plain = canonical_key("roadpart", query)
        capped = canonical_key("roadpart", query, deadline_ms=50.0)
        cascaded = canonical_key("roadpart", query, deadline_ms=50.0,
                                 fallback=("ble",))
        other_engine = canonical_key("roadpart", query, engine="dict")
        # Oracle policy splits the key too: the stats payload carries
        # oracle_hits/oracle_fallbacks only on oracle-answered requests.
        no_oracle = canonical_key("roadpart", query, oracle="none")
        assert len({plain, capped, cascaded, other_engine,
                    no_oracle}) == 5

    def test_algorithm_is_identity(self):
        query = DPSQuery.q_query([1, 2])
        assert canonical_key("roadpart", query) \
            != canonical_key("ble", query)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(4)
        key = ("k",)
        assert cache.get(key) is None
        cache.put(key, b"answer")
        assert cache.get(key) == b"answer"
        assert cache.counters() == {"cache_hits": 1, "cache_misses": 1,
                                    "cache_evictions": 0,
                                    "cache_size": 1}

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put(("a",), b"1")
        cache.put(("b",), b"2")
        assert cache.get(("a",)) == b"1"  # bump a's recency
        cache.put(("c",), b"3")           # evicts b, the LRU entry
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == b"1"
        assert cache.get(("c",)) == b"3"
        assert cache.evictions == 1

    def test_repeat_put_is_refresh_not_growth(self):
        cache = ResultCache(4)
        cache.put(("a",), b"1")
        cache.put(("a",), b"1")
        assert len(cache) == 1
        assert cache.evictions == 0

    def test_capacity_zero_disables_storage_keeps_counters(self):
        cache = ResultCache(0)
        cache.put(("a",), b"1")
        assert cache.get(("a",)) is None
        assert len(cache) == 0
        assert cache.counters()["cache_misses"] == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_clear(self):
        cache = ResultCache(4)
        cache.put(("a",), b"1")
        cache.clear()
        assert cache.get(("a",)) is None
        assert len(cache) == 0


class TestByteRepeatAliases:
    """Raw body -> canonical key aliases: a raw lookup reads, bumps and
    counts the canonical entry exactly as ``get`` does."""

    def test_raw_hit_counts_and_bumps_like_get(self):
        cache = ResultCache(2)
        cache.put(("a",), b"1")
        cache.alias(b"body-a", ("a",), "dict")
        cache.put(("b",), b"2")
        assert cache.get_raw(b"body-a") == (b"1", "dict")
        cache.put(("c",), b"3")           # evicts b: the raw hit bumped a
        assert cache.get(("b",)) is None
        assert cache.counters() == {"cache_hits": 1, "cache_misses": 1,
                                    "cache_evictions": 1,
                                    "cache_size": 2}

    def test_unknown_body_counts_nothing(self):
        cache = ResultCache(2)
        assert cache.get_raw(b"never seen") is None
        assert cache.hits == cache.misses == 0

    def test_alias_of_an_evicted_entry_is_dropped(self):
        cache = ResultCache(1)
        cache.put(("a",), b"1")
        cache.alias(b"body-a", ("a",), "flat")
        cache.put(("b",), b"2")
        assert cache.get_raw(b"body-a") is None
        assert b"body-a" not in cache._aliases
        assert cache.hits == cache.misses == 0

    def test_aliases_are_bounded_by_capacity_lru(self):
        cache = ResultCache(2)
        for name in (b"x", b"y"):
            cache.put((name,), name)
            cache.alias(name, (name,), "flat")
        assert cache.get_raw(b"x") == (b"x", "flat")  # y is now the LRU
        cache.alias(b"x-spaced", (b"x",), "flat")
        assert list(cache._aliases) == [b"x", b"x-spaced"]

    def test_no_alias_without_capacity_or_above_the_bound(self):
        from repro.serve.cache import MAX_ALIAS_BYTES
        off = ResultCache(0)
        off.alias(b"body", ("a",), "flat")
        assert not off._aliases
        cache = ResultCache(4)
        cache.put(("a",), b"1")
        big = b" " * (MAX_ALIAS_BYTES + 1)
        cache.alias(big, ("a",), "flat")
        assert not cache._aliases
        assert cache.get_raw(big) is None

    def test_clear_drops_aliases(self):
        cache = ResultCache(4)
        cache.put(("a",), b"1")
        cache.alias(b"body", ("a",), "flat")
        cache.clear()
        assert not cache._aliases
