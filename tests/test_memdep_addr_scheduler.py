"""Unit tests for the address-based scheduler."""

import pytest

from repro.memdep.addr_scheduler import AddressScheduler


class _FakeStore:
    def __init__(self, seq, addr, size=4):
        self.seq = seq
        self.inst = type(
            "I", (), {"addr": addr, "size": size}
        )()


def test_all_older_posted_tracks_unposted():
    sched = AddressScheduler(latency=0)
    sched.on_store_dispatch(3)
    sched.on_store_dispatch(7)
    assert not sched.all_older_posted(5, cycle=10)  # store 3 unposted
    sched.post_address(_FakeStore(3, 0x100), cycle=10)
    assert sched.all_older_posted(5, cycle=10)
    assert not sched.all_older_posted(9, cycle=10)  # store 7 unposted


def test_latency_delays_visibility():
    sched = AddressScheduler(latency=2)
    sched.on_store_dispatch(3)
    visible = sched.post_address(_FakeStore(3, 0x100), cycle=10)
    assert visible == 12
    assert not sched.all_older_posted(5, cycle=11)
    assert sched.all_older_posted(5, cycle=12)
    assert sched.youngest_older_match(5, 0x100, 4, cycle=11) is None
    assert sched.youngest_older_match(5, 0x100, 4, cycle=12) is not None


def test_youngest_older_match():
    sched = AddressScheduler(latency=0)
    for seq in (1, 4, 8):
        sched.on_store_dispatch(seq)
    sched.post_address(_FakeStore(1, 0x100), 0)
    sched.post_address(_FakeStore(4, 0x100), 0)
    sched.post_address(_FakeStore(8, 0x100), 0)
    match = sched.youngest_older_match(6, 0x100, 4, cycle=5)
    assert match.seq == 4  # youngest *older* than 6
    assert sched.youngest_older_match(1, 0x100, 4, cycle=5) is None


def test_no_match_for_disjoint_addresses():
    sched = AddressScheduler(latency=0)
    sched.on_store_dispatch(1)
    sched.post_address(_FakeStore(1, 0x100), 0)
    assert sched.youngest_older_match(5, 0x200, 4, cycle=5) is None


def test_partial_overlap_matches():
    sched = AddressScheduler(latency=0)
    sched.on_store_dispatch(1)
    sched.post_address(_FakeStore(1, 0x100, size=8), 0)
    assert sched.youngest_older_match(5, 0x104, 4, cycle=5) is not None


def test_squash_truncates():
    sched = AddressScheduler(latency=0)
    for seq in (1, 4, 8):
        sched.on_store_dispatch(seq)
    sched.post_address(_FakeStore(4, 0x100), 0)
    sched.squash(4)
    assert sched.youngest_older_match(9, 0x100, 4, cycle=5) is None
    # Store 1 is older than the squash point: still unposted.
    assert not sched.all_older_posted(9, cycle=5)


def test_remove_store_on_commit():
    sched = AddressScheduler(latency=0)
    sched.on_store_dispatch(1)
    sched.post_address(_FakeStore(1, 0x100), 0)
    sched.remove_store(1)
    assert sched.youngest_older_match(5, 0x100, 4, cycle=5) is None


def test_dispatch_order_enforced():
    sched = AddressScheduler(latency=0)
    sched.on_store_dispatch(5)
    with pytest.raises(ValueError):
        sched.on_store_dispatch(3)


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        AddressScheduler(latency=-1)


def test_match_for_wide_access_spanning_blocks():
    # The block filter must walk every 8-byte block of a wide access,
    # not just its endpoints.
    sched = AddressScheduler(latency=0)
    sched.on_store_dispatch(2)
    sched.post_address(_FakeStore(2, 0x110), cycle=0)
    assert sched.youngest_older_match(9, 0x100, 32, cycle=5) is not None
    assert sched.youngest_older_match(9, 0x200, 32, cycle=5) is None


def test_removed_store_no_longer_matches():
    sched = AddressScheduler(latency=0)
    sched.on_store_dispatch(2)
    sched.post_address(_FakeStore(2, 0x100), cycle=0)
    assert sched.youngest_older_match(9, 0x100, 4, cycle=5) is not None
    sched.remove_store(2)
    assert sched.youngest_older_match(9, 0x100, 4, cycle=5) is None


def test_visibility_bound_survives_removal():
    # The max-visibility bound may go stale high after a removal; that
    # must only cost a scan, never flip an answer.
    sched = AddressScheduler(latency=2)
    sched.on_store_dispatch(2)
    sched.on_store_dispatch(6)
    sched.post_address(_FakeStore(2, 0x100), cycle=10)  # visible at 12
    sched.post_address(_FakeStore(6, 0x200), cycle=4)   # visible at 6
    sched.remove_store(2)
    assert sched.all_older_posted(9, cycle=7)
    assert not sched.all_older_posted(9, cycle=5)  # store 6 not visible
