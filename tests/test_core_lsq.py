"""Unit tests for LSQ helpers."""

import pytest

from repro.core.lsq import MemPool, SynonymTracker, UnexecutedStoreTracker
from repro.core.window import Entry
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass


def _entry(seq, op=OpClass.LOAD):
    addr = 0x100 if op in (OpClass.LOAD, OpClass.STORE) else None
    return Entry(DynInst(seq=seq, pc=4 * seq, op=op, addr=addr), 0)


def test_unexecuted_tracker_basics():
    tracker = UnexecutedStoreTracker()
    tracker.on_dispatch(2)
    tracker.on_dispatch(5)
    assert tracker.oldest() == 2
    tracker.on_execute(2)
    assert tracker.oldest() == 5
    tracker.on_execute(5)
    assert tracker.oldest() is None
    assert len(tracker) == 0


def test_unexecuted_tracker_squash():
    tracker = UnexecutedStoreTracker()
    for seq in (1, 4, 9):
        tracker.on_dispatch(seq)
    tracker.squash(4)
    assert len(tracker) == 1
    assert tracker.oldest() == 1


def test_unexecuted_tracker_order_enforced():
    tracker = UnexecutedStoreTracker()
    tracker.on_dispatch(5)
    with pytest.raises(ValueError):
        tracker.on_dispatch(3)


def test_mem_pool_live_entries_sorted_and_pruned():
    pool = MemPool()
    a, b, c = _entry(3), _entry(1), _entry(2)
    for e in (a, b, c):
        pool.push(e)
    c.squashed = True
    live = pool.live_entries()
    assert [e.seq for e in live] == [1, 3]


def test_mem_pool_remove():
    pool = MemPool()
    a, b = _entry(1), _entry(2)
    pool.push(a)
    pool.push(b)
    pool.remove(a)
    assert [e.seq for e in pool.live_entries()] == [2]
    assert not a.in_mem_pool


def test_synonym_tracker_closest_older_producer():
    tracker = SynonymTracker()
    s1, s2 = _entry(3, OpClass.STORE), _entry(7, OpClass.STORE)
    tracker.add_producer(9, s1)
    tracker.add_producer(9, s2)
    assert tracker.closest_older_producer(9, 10) is s2
    assert tracker.closest_older_producer(9, 5) is s1
    assert tracker.closest_older_producer(9, 2) is None
    assert tracker.closest_older_producer(4, 10) is None


def test_synonym_tracker_squash_and_retire():
    tracker = SynonymTracker()
    s1, s2 = _entry(3, OpClass.STORE), _entry(7, OpClass.STORE)
    tracker.add_producer(9, s1)
    tracker.add_producer(9, s2)
    tracker.squash(5)
    assert tracker.closest_older_producer(9, 10) is s1
    tracker.retire(9, s1)
    assert tracker.closest_older_producer(9, 10) is None
    tracker.retire(None, s1)  # no-op


def test_mem_pool_memoizes_live_list():
    pool = MemPool()
    a, b = _entry(1), _entry(2)
    pool.push(a)
    pool.push(b)
    first = pool.live_entries()
    assert pool.live_entries() is first  # unchanged pool: memo reused
    pool.remove(a)
    second = pool.live_entries()
    assert second is not first
    assert [e.seq for e in second] == [2]


def test_mem_pool_invalidate_after_external_squash():
    pool = MemPool()
    a, b = _entry(1), _entry(2)
    pool.push(a)
    pool.push(b)
    pool.live_entries()
    # A squash flags the entry without telling the pool; the memo is
    # stale until invalidate().
    b.squashed = True
    pool.invalidate()
    assert [e.seq for e in pool.live_entries()] == [1]
