"""Memory-subsystem edge cases: MSHR pressure, L2 transfers, banking."""

from repro.config import continuous_window_128
from repro.config.processor import CacheConfig
from repro.memory.cache import SetAssocCache
from repro.memory.hierarchy import MemoryHierarchy


def _tiny_cache(primary=1, secondary=0):
    config = CacheConfig(
        name="tiny", size_bytes=512, assoc=2, block_bytes=32, banks=1,
        hit_latency=1, miss_latency=5,
        mshr_primary_per_bank=primary,
        mshr_secondary_per_primary=secondary,
    )
    return SetAssocCache(config, lambda a, c, w: c + 50)


def test_mshr_exhaustion_serialises_misses():
    cache = _tiny_cache(primary=1)
    first = cache.access(0x000, 0)
    second = cache.access(0x400, 0)  # different block, MSHRs full
    assert second >= first
    assert cache.mshr_stalls >= 1


def test_parallel_misses_with_enough_mshrs():
    cache = _tiny_cache(primary=4)
    first = cache.access(0x000, 0)
    second = cache.access(0x400, 1)
    # Fully overlapped fills: completion within a couple cycles.
    assert abs(second - first) <= 2
    assert cache.mshr_stalls == 0


def test_secondary_merge_limit():
    cache = _tiny_cache(primary=2, secondary=1)
    cache.access(0x000, 0)
    a = cache.access(0x004, 1)  # merge 1: OK
    b = cache.access(0x008, 2)  # merge 2: over limit, delayed
    assert b >= a


def test_l2_block_spans_multiple_l1_blocks():
    h = MemoryHierarchy(continuous_window_128())
    t1 = h.load(0x8000, 0)
    # Different L1 block (32B), same L2 block (128B): second L1 miss
    # must hit in L2 (no second main-memory access).
    h.load(0x8000 + 64, t1)
    assert h.main_memory.accesses == 1
    assert h.l2.hits == 1


def test_bank_interleaving_allows_parallel_access():
    h = MemoryHierarchy(continuous_window_128())
    # Warm two blocks in different banks (consecutive blocks interleave
    # across banks), then access both in the same cycle: no conflict.
    h.warm([0x1000, 0x1020])
    a = h.load(0x1000, 100)
    b = h.load(0x1020, 100)
    hit = h.config.dcache.hit_latency
    assert a == 100 + hit and b == 100 + hit
    assert h.dcache.bank_conflicts == 0


def test_same_bank_same_cycle_conflicts():
    h = MemoryHierarchy(continuous_window_128())
    banks = h.config.dcache.banks
    block = h.config.dcache.block_bytes
    addr_a = 0x1000
    addr_b = 0x1000 + banks * block  # same bank, next set
    h.warm([addr_a, addr_b])
    a = h.load(addr_a, 100)
    b = h.load(addr_b, 100)
    assert b == a + 1
    assert h.dcache.bank_conflicts == 1


def test_icache_store_never_issued():
    h = MemoryHierarchy(continuous_window_128())
    h.fetch(0x0, 0)
    assert h.icache.accesses == 1
    assert h.dcache.accesses == 0
