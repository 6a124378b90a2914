"""Unit tests for the violation detector."""

from repro.memdep.violation import ViolationDetector


class _FakeLoad:
    def __init__(self, seq, mem_issue_cycle=None, squashed=False,
                 forwarded_from=None):
        self.seq = seq
        self.mem_issue_cycle = mem_issue_cycle
        self.squashed = squashed
        self.forwarded_from = forwarded_from


def test_premature_read_detected():
    det = ViolationDetector()
    load = _FakeLoad(seq=10, mem_issue_cycle=50)
    det.register_load(load, store_seq=5)
    assert det.loads_violating(5, write_cycle=60) == [load]


def test_load_forwarded_from_the_store_is_safe():
    # It read the store's own value from the store buffer.
    det = ViolationDetector()
    load = _FakeLoad(seq=10, mem_issue_cycle=50, forwarded_from=5)
    det.register_load(load, store_seq=5)
    assert det.loads_violating(5, write_cycle=60) == []


def test_read_after_write_is_safe():
    det = ViolationDetector()
    load = _FakeLoad(seq=10, mem_issue_cycle=70)
    det.register_load(load, store_seq=5)
    assert det.loads_violating(5, write_cycle=60) == []


def test_unissued_load_is_safe():
    det = ViolationDetector()
    det.register_load(_FakeLoad(seq=10), store_seq=5)
    assert det.loads_violating(5, write_cycle=60) == []


def test_squashed_load_ignored():
    det = ViolationDetector()
    load = _FakeLoad(seq=10, mem_issue_cycle=50, squashed=True)
    det.register_load(load, store_seq=5)
    assert det.loads_violating(5, write_cycle=60) == []


def test_squash_removes_younger_records():
    det = ViolationDetector()
    old = _FakeLoad(seq=8, mem_issue_cycle=10)
    young = _FakeLoad(seq=12, mem_issue_cycle=10)
    det.register_load(old, store_seq=5)
    det.register_load(young, store_seq=5)
    det.squash(10)
    assert det.loads_violating(5, write_cycle=60) == [old]


def test_retire_store_clears_records():
    det = ViolationDetector()
    det.register_load(_FakeLoad(seq=10, mem_issue_cycle=5), store_seq=5)
    det.retire_store(5)
    assert det.loads_violating(5, write_cycle=60) == []


def test_multiple_loads_per_store():
    det = ViolationDetector()
    l1 = _FakeLoad(seq=10, mem_issue_cycle=50)
    l2 = _FakeLoad(seq=12, mem_issue_cycle=65)
    det.register_load(l1, store_seq=5)
    det.register_load(l2, store_seq=5)
    assert det.loads_violating(5, write_cycle=60) == [l1]
    assert det.dependent_loads(5) == [l1, l2]
