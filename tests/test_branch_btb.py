"""Unit tests for the branch target buffer."""

import pytest

from repro.branch.btb import BranchTargetBuffer


def test_miss_then_hit():
    btb = BranchTargetBuffer(entries=64, assoc=2)
    assert btb.lookup(0x100) is None
    btb.update(0x100, 0x200)
    assert btb.lookup(0x100) == 0x200
    assert btb.hits == 1 and btb.misses == 1


def test_update_replaces_target():
    btb = BranchTargetBuffer(entries=64, assoc=2)
    btb.update(0x100, 0x200)
    btb.update(0x100, 0x300)
    assert btb.lookup(0x100) == 0x300


def test_lru_within_set():
    btb = BranchTargetBuffer(entries=8, assoc=2)  # 4 sets
    sets = 4
    # Three PCs mapping to set 0 (pc>>2 multiples of 4).
    pc = lambda i: (i * sets) << 2
    btb.update(pc(0), 1)
    btb.update(pc(1), 2)
    btb.lookup(pc(0))  # refresh pc(0) to MRU
    btb.update(pc(2), 3)  # evicts pc(1)
    assert btb.lookup(pc(0)) == 1
    assert btb.lookup(pc(1)) is None
    assert btb.lookup(pc(2)) == 3


def test_validation():
    with pytest.raises(ValueError):
        BranchTargetBuffer(entries=10, assoc=3)
    with pytest.raises(ValueError):
        BranchTargetBuffer(entries=24, assoc=2)


def test_occupancy():
    btb = BranchTargetBuffer(entries=64, assoc=2)
    btb.update(0x100, 0x200)
    assert sum(btb.occupancy().values()) == 1


def test_lookup_on_untouched_set_is_a_miss():
    btb = BranchTargetBuffer(entries=64, assoc=2)
    assert btb.lookup(0x100) is None
    assert (btb.hits, btb.misses) == (0, 1)
    assert btb.occupancy() == {}
