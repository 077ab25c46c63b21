"""Cache behaviour: LRU order, TTL expiry, byte budget, counters."""

import numpy as np
import pytest

from repro.service.cache import ENTRY_OVERHEAD_BYTES, SpectrumCache


def arr(n=8, fill=1.0):
    return np.full(n, fill, dtype=np.float64)


class TestLRU:
    def test_hit_returns_stored_value(self):
        c = SpectrumCache(max_entries=4)
        c.put("a", arr(fill=3.0), now=0.0)
        np.testing.assert_array_equal(c.get("a", now=1.0), arr(fill=3.0))
        assert c.stats.hits == 1 and c.stats.misses == 0

    def test_miss_counted(self):
        c = SpectrumCache()
        assert c.get("absent", now=0.0) is None
        assert c.stats.misses == 1

    def test_evicts_least_recently_used(self):
        c = SpectrumCache(max_entries=2)
        c.put("a", arr(), now=0.0)
        c.put("b", arr(), now=1.0)
        c.get("a", now=2.0)  # refresh a; b becomes LRU
        c.put("c", arr(), now=3.0)
        assert "a" in c and "c" in c and "b" not in c
        assert c.stats.evictions == 1

    def test_put_refreshes_existing_entry(self):
        c = SpectrumCache(max_entries=4)
        c.put("a", arr(fill=1.0), now=0.0)
        c.put("a", arr(fill=2.0), now=1.0)
        assert len(c) == 1
        np.testing.assert_array_equal(c.get("a", now=2.0), arr(fill=2.0))


class TestTTL:
    def test_expires_on_access(self):
        c = SpectrumCache(ttl_s=10.0)
        c.put("a", arr(), now=0.0)
        assert c.get("a", now=5.0) is not None
        assert c.get("a", now=10.0) is None  # >= ttl
        assert c.stats.expirations == 1
        assert "a" not in c


class TestByteBudget:
    def test_sizeof_includes_overhead(self):
        assert SpectrumCache.sizeof(arr(8)) == 8 * 8 + ENTRY_OVERHEAD_BYTES

    def test_budget_enforced_by_eviction(self):
        entry = SpectrumCache.sizeof(arr(8))
        c = SpectrumCache(max_entries=100, max_bytes=2 * entry)
        c.put("a", arr(), now=0.0)
        c.put("b", arr(), now=1.0)
        c.put("c", arr(), now=2.0)
        assert len(c) == 2
        assert c.bytes_stored <= 2 * entry
        assert c.stats.evictions == 1
        assert "a" not in c

    def test_oversize_value_rejected_not_stored(self):
        c = SpectrumCache(max_bytes=64)
        assert c.put("big", arr(1024), now=0.0) is False
        assert "big" not in c
        assert c.stats.oversize_rejections == 1
        assert c.bytes_stored == 0

    def test_bytes_accounting_exact(self):
        c = SpectrumCache()
        c.put("a", arr(4), now=0.0)
        c.put("b", arr(16), now=0.0)
        expected = SpectrumCache.sizeof(arr(4)) + SpectrumCache.sizeof(arr(16))
        assert c.bytes_stored == expected


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_entries": 0}, {"max_bytes": 0}, {"ttl_s": 0.0}],
    )
    def test_rejects_degenerate_limits(self, kwargs):
        with pytest.raises(ValueError):
            SpectrumCache(**kwargs)

    def test_hit_ratio(self):
        c = SpectrumCache()
        c.put("a", arr(), now=0.0)
        c.get("a", now=0.0)
        c.get("b", now=0.0)
        assert c.stats.hit_ratio() == pytest.approx(0.5)
