"""Tests for the set-associative cache, including an LRU model property."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.mem.cache import Cache, CacheGeometry


def make_cache(size=1024, assoc=2, line=32):
    return Cache("c", CacheGeometry(size, assoc, line))


def resident(cache, addr):
    """True when the line holding *addr* is in its set (no LRU update)."""
    line = cache.geom.line_of(addr)
    return line in cache._sets[cache.geom.set_of(line)]


def test_geometry_derivations():
    geom = CacheGeometry(32 * 1024, 2, 32)
    assert geom.num_sets == 512
    assert geom.line_of(0x40) == 2
    assert geom.set_of(geom.line_of(0x40)) == 2


def test_geometry_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        CacheGeometry(1000, 2, 32)  # not divisible
    with pytest.raises(ConfigError):
        CacheGeometry(1024, 2, 33)  # line not power of two
    with pytest.raises(ConfigError):
        CacheGeometry(96 * 32, 2, 32)  # sets not power of two


def test_cold_miss_then_hit():
    cache = make_cache()
    assert cache.access(0x100, False) is False
    assert cache.access(0x100, False) is True
    assert cache.access(0x11C, False) is True  # same 32B line


def test_miss_rate():
    cache = make_cache()
    cache.access(0x000, False)
    cache.access(0x000, False)
    cache.access(0x000, False)
    cache.access(0x400, False)
    assert cache.miss_rate == pytest.approx(0.5)


def test_empty_cache_miss_rate_zero():
    assert make_cache().miss_rate == 0.0


def test_lru_eviction_order():
    # direct-ish: 2-way, force three lines into one set
    cache = make_cache(size=2 * 32 * 4, assoc=2, line=32)  # 4 sets
    set_stride = 4 * 32  # lines mapping to set 0
    a, b, c = 0, set_stride, 2 * set_stride
    cache.access(a, False)
    cache.access(b, False)
    cache.access(a, False)  # a is now MRU
    cache.access(c, False)  # evicts b (LRU)
    assert resident(cache, a)
    assert not resident(cache, b)
    assert resident(cache, c)


def test_dirty_writeback_counted():
    cache = make_cache(size=2 * 32 * 1, assoc=1, line=32)  # 2 sets, DM
    stride = 2 * 32
    cache.access(0, True)        # dirty line in set 0
    cache.access(stride, False)  # evicts dirty line
    assert cache.counters.get("c.writebacks") == 1


def test_clean_eviction_no_writeback():
    cache = make_cache(size=2 * 32 * 1, assoc=1, line=32)
    stride = 2 * 32
    cache.access(0, False)
    cache.access(stride, False)
    assert cache.counters.get("c.writebacks") == 0


def test_invalidate():
    cache = make_cache()
    cache.access(0x100, True)
    assert cache.invalidate(0x100)
    assert not resident(cache, 0x100)
    assert not cache.invalidate(0x100)


def test_flush_counts_dirty_lines():
    cache = make_cache()
    cache.access(0x000, True)   # set 0
    cache.access(0x020, True)   # set 1
    cache.access(0x040, False)  # set 2, clean
    assert cache.flush() == 2
    assert not any(resident(cache, a) for a in (0x000, 0x020, 0x040))


def test_capacity_bounded():
    cache = make_cache(size=256, assoc=2, line=32)  # 8 lines total
    for i in range(64):
        cache.access(i * 32, False)
    assert sum(resident(cache, i * 32) for i in range(64)) <= 8


@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                min_size=1, max_size=300))
def test_matches_reference_lru_model(accesses):
    """Property: hit/miss sequence matches a straightforward LRU model."""
    assoc, num_sets, line = 2, 4, 32
    cache = Cache("m", CacheGeometry(assoc * num_sets * line, assoc, line))
    model = {s: [] for s in range(num_sets)}  # MRU-first line lists
    for line_no, is_store in accesses:
        addr = line_no * line
        set_index = line_no % num_sets
        ways = model[set_index]
        expected_hit = line_no in ways
        if expected_hit:
            ways.remove(line_no)
        elif len(ways) >= assoc:
            ways.pop()
        ways.insert(0, line_no)
        assert cache.access(addr, is_store) == expected_hit


@given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
def test_small_working_set_always_hits_after_warmup(lines):
    """Anything that fits in the cache never misses after first touch."""
    cache = make_cache(size=1024, assoc=2, line=32)  # 32 lines, 16 sets
    warm = set()
    for line_no in lines:
        hit = cache.access(line_no * 32, False)
        assert hit == (line_no in warm)
        warm.add(line_no)
