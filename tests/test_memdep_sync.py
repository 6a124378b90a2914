"""Unit tests for the MDPT with synonym indirection."""

import pytest

from repro.memdep.sync import MDPT


def test_violation_links_both_sides():
    mdpt = MDPT(entries=128, assoc=2)
    synonym = mdpt.record_violation(load_pc=0x40, store_pc=0x80)
    assert mdpt.predict_load(0x40).synonym == synonym
    assert mdpt.predict_store(0x80).synonym == synonym


def test_unknown_pcs_predict_nothing():
    mdpt = MDPT(entries=128, assoc=2)
    assert mdpt.predict_load(0x40) is None
    assert mdpt.predict_store(0x40) is None


def test_synonym_reuse_links_multiple_stores_to_one_load():
    """Several static stores feeding one load share a synonym, so the
    load synchronizes with whichever is the closest producer."""
    mdpt = MDPT(entries=128, assoc=2)
    s1 = mdpt.record_violation(0x40, 0x80)
    s2 = mdpt.record_violation(0x40, 0x90)
    assert s1 == s2
    assert mdpt.predict_store(0x80).synonym == s1
    assert mdpt.predict_store(0x90).synonym == s1


def test_synonym_reuse_via_store_side():
    mdpt = MDPT(entries=128, assoc=2)
    s1 = mdpt.record_violation(0x40, 0x80)
    s2 = mdpt.record_violation(0x50, 0x80)
    assert s1 == s2
    assert mdpt.predict_load(0x50).synonym == s1


def test_distinct_pairs_get_distinct_synonyms():
    mdpt = MDPT(entries=128, assoc=2)
    s1 = mdpt.record_violation(0x40, 0x80)
    s2 = mdpt.record_violation(0x44, 0x84)
    assert s1 != s2
    assert mdpt.allocated_pairs == 2


def test_flush_clears_predictions():
    mdpt = MDPT(entries=128, assoc=2)
    mdpt.record_violation(0x40, 0x80)
    mdpt.flush()
    assert mdpt.predict_load(0x40) is None
    assert mdpt.occupancy() == 0
    synonym = mdpt.record_violation(0x40, 0x80)
    assert mdpt.predict_load(0x40).synonym == synonym
    assert mdpt.predict_store(0x80).synonym == synonym
    assert mdpt.occupancy() == 2


def test_capacity_replacement():
    mdpt = MDPT(entries=8, assoc=2)  # 2 sets per side
    # Fill one set beyond capacity; oldest entries fall out.
    for i in range(4):
        mdpt.record_violation((i * 2) << 2, 0x1000 + ((i * 2) << 2))
    assert mdpt.occupancy() <= 8


def test_validation():
    with pytest.raises(ValueError):
        MDPT(entries=4098, assoc=2)  # 2049 per side: not 2-way
    with pytest.raises(ValueError):
        MDPT(entries=4097, assoc=1)  # odd total: the sides cannot split
    with pytest.raises(ValueError):
        MDPT(entries=96, assoc=2)  # 24 sets per side
