"""Unit tests for the SEL/STORE confidence predictor table."""

import pytest

from repro.memdep.tables import TwoBitPredictorTable


def test_threshold_of_three_misspeculations():
    """Paper: 'It takes 3 miss-speculations on a specific load or store
    before the existence of a dependence is predicted.'"""
    table = TwoBitPredictorTable(entries=64, assoc=2, threshold=3)
    pc = 0x40
    table.record_misspeculation(pc)
    assert not table.predicts_dependence(pc)
    table.record_misspeculation(pc)
    assert not table.predicts_dependence(pc)
    table.record_misspeculation(pc)
    assert table.predicts_dependence(pc)


def test_counter_saturates():
    table = TwoBitPredictorTable(entries=64, assoc=2)
    for _ in range(10):
        table.record_misspeculation(0x40)
    assert table.predicts_dependence(0x40)


def test_good_speculation_weakens():
    table = TwoBitPredictorTable(entries=64, assoc=2, threshold=3)
    for _ in range(3):
        table.record_misspeculation(0x40)
    table.record_good_speculation(0x40)
    assert not table.predicts_dependence(0x40)


def test_flush_resets_everything():
    table = TwoBitPredictorTable(entries=64, assoc=2)
    for _ in range(3):
        table.record_misspeculation(0x40)
    table.flush()
    assert not table.predicts_dependence(0x40)
    assert table.occupancy() == 0
    for _ in range(3):
        table.record_misspeculation(0x40)
    assert table.predicts_dependence(0x40)
    assert table.occupancy() == 1


def test_set_associative_replacement():
    table = TwoBitPredictorTable(entries=4, assoc=2)  # 2 sets
    sets = 2
    pc = lambda i: (i * sets) << 2  # all map to set 0
    table.record_misspeculation(pc(0))
    table.record_misspeculation(pc(1))
    table.record_misspeculation(pc(2))  # evicts pc(0) (LRU)
    assert table.evictions == 1
    # pc(0)'s state was lost: recording again re-allocates at count 1.
    table.record_misspeculation(pc(0))
    assert not table.predicts_dependence(pc(0))


def test_independent_pcs():
    table = TwoBitPredictorTable(entries=64, assoc=2)
    for _ in range(3):
        table.record_misspeculation(0x40)
    assert not table.predicts_dependence(0x44)


def test_validation():
    with pytest.raises(ValueError):
        TwoBitPredictorTable(entries=10, assoc=3)
    with pytest.raises(ValueError):
        TwoBitPredictorTable(entries=64, assoc=2, threshold=0)
    with pytest.raises(ValueError):
        TwoBitPredictorTable(entries=24, assoc=2)
