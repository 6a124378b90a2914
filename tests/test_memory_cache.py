"""Unit tests for the set-associative cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.processor import CacheConfig
from repro.memory.cache import SetAssocCache


def _small_cache(next_latency=50, **overrides):
    params = dict(
        name="test",
        size_bytes=1024,
        assoc=2,
        block_bytes=32,
        banks=2,
        hit_latency=2,
        miss_latency=10,
        mshr_primary_per_bank=2,
        mshr_secondary_per_primary=2,
    )
    params.update(overrides)
    config = CacheConfig(**params)
    calls = []

    def next_level(addr, cycle, write):
        calls.append((addr, cycle, write))
        return cycle + next_latency

    return SetAssocCache(config, next_level), calls


def test_miss_then_hit():
    cache, calls = _small_cache()
    first = cache.access(0x1000, cycle=0)
    assert (cache.hits, cache.misses) == (0, 1)
    assert len(calls) == 1
    second = cache.access(0x1000, cycle=first)
    assert (cache.hits, cache.misses) == (1, 1)
    assert second == first + 2


def test_same_block_different_words_hit():
    cache, _ = _small_cache()
    done = cache.access(0x1000, 0)
    cache.access(0x101C, done)  # same 32-byte block
    assert cache.hits == 1


def test_secondary_miss_merges():
    cache, calls = _small_cache()
    done = cache.access(0x1000, 0)
    merged = cache.access(0x1004, 1)  # same block, fill in flight
    assert (cache.hits, cache.misses) == (0, 2)
    assert merged == done  # completes with the fill it merged into
    assert len(calls) == 1  # no second request to the next level
    assert cache.mshr_merges == 1


def test_lru_eviction():
    cache, calls = _small_cache()
    # 2 banks, 8 sets/bank, 2-way: three blocks in the same set of the
    # same bank evict the least recently used.
    sets_per_bank = cache.config.sets_per_bank
    stride = 32 * 2 * sets_per_bank  # same bank, same set
    a, b, c = 0x1000, 0x1000 + stride, 0x1000 + 2 * stride
    t = cache.access(a, 0)
    t = cache.access(b, t)
    t = max(t, cache.access(a, t))  # refresh a
    t = cache.access(c, t)  # evicts b
    assert cache.contains(a) and cache.contains(c)
    assert not cache.contains(b)


def test_bank_conflict_serialises():
    cache, _ = _small_cache()
    block = 0x1000
    done = cache.access(block, 0)
    # Two accesses to the same bank in the same cycle: second is delayed.
    r1 = cache.access(block, done)
    r2 = cache.access(block, done)
    assert r2 == r1 + 1
    assert cache.bank_conflicts >= 1


def test_stats():
    cache, _ = _small_cache()
    cache.access(0x0, 0)
    cache.access(0x0, 100)
    assert cache.accesses == 2
    assert cache.miss_rate == 0.5
    cache.reset_stats()
    assert cache.accesses == 0


def test_bad_bank_count():
    with pytest.raises(ValueError):
        _small_cache(banks=3, size_bytes=32 * 2 * 3 * 4)


# ---------------------------------------------------------------------------
# Random geometries vs a per-(bank, set) LRU model
# ---------------------------------------------------------------------------

#: Cycles between two operations: past every fill below (next level 50,
#: miss latency 10), so every MSHR has retired and no access merges.
_SPACING = 1000


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_random_geometry_matches_lru_model(data):
    banks = data.draw(st.sampled_from((1, 2, 4, 8)), label="banks")
    sets = data.draw(st.sampled_from((1, 2, 4, 8, 16)), label="sets")
    assoc = data.draw(st.integers(1, 4), label="assoc")
    block_bytes = data.draw(st.sampled_from((16, 32, 64)), label="block")
    cache, calls = _small_cache(
        size_bytes=block_bytes * banks * sets * assoc,
        assoc=assoc, block_bytes=block_bytes, banks=banks,
    )
    block_shift = block_bytes.bit_length() - 1
    bank_bits = banks.bit_length() - 1
    universe = 4 * banks * sets * assoc  # blocks, so sets overflow
    ops = data.draw(st.lists(
        st.tuples(
            st.sampled_from(("access", "touch")),
            st.integers(0, universe - 1),
            st.integers(0, block_bytes - 1),
            st.booleans(),
        ),
        min_size=1, max_size=60,
    ), label="ops")

    model = {}  # (bank, set) -> block tags, MRU first

    def model_set(block):
        bank = block & (banks - 1)
        return model.setdefault((bank, (block >> bank_bits) & (sets - 1)), [])

    expected_calls = []
    for step, (op, block, offset, write) in enumerate(ops):
        addr = (block << block_shift) | offset
        ways = model_set(block)
        resident = block in ways
        if op == "access":
            cycle = step * _SPACING
            hits = cache.hits
            done = cache.access(addr, cycle, write)
            assert cache.hits - hits == resident
            if resident:
                assert done == cycle + cache.config.hit_latency
                ways.remove(block)
            else:
                expected_calls.append((
                    block << block_shift,
                    cycle + cache.config.hit_latency,
                    write,
                ))
            ways.insert(0, block)
        else:
            cache.touch(addr)
            # A resident block keeps its LRU position.
            if not resident:
                ways.insert(0, block)
        del ways[assoc:]
        assert cache.contains(addr)
    assert calls == expected_calls
    for block in range(universe):
        assert cache.contains(block << block_shift) == (
            block in model_set(block)
        )
