"""Unit tests for the per-cycle invariant checker's structure scans."""

from types import SimpleNamespace

import pytest

from repro.check import InvariantChecker
from repro.check.faults import _inst, _micro_trace
from repro.check.report import CheckReport
from repro.core.lsq import MemPool, UnexecutedStoreTracker
from repro.core.window import Entry
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.memory.store_buffer import StoreBuffer, StoreBufferEntry


def _tiny_trace():
    return _micro_trace(
        [_inst(0, OpClass.IALU, dest=1)], "tiny", filler=2
    )


def _fake_window(entries):
    by_seq = {e.seq: e for e in entries}
    return SimpleNamespace(_entries=list(entries), get=by_seq.get)


def _fake_processor(**overrides):
    """Minimal structure carrier accepted by ``on_cycle``."""
    processor = SimpleNamespace(
        cycle=7,
        window=_fake_window([]),
        store_buffer=StoreBuffer(capacity=4),
        unexec_stores=UnexecutedStoreTracker(),
        barrier_stores=UnexecutedStoreTracker(),
        load_pool=MemPool("load-pool"),
        store_write_pool=MemPool("store-write-pool"),
        addr_sched=None,
    )
    for name, value in overrides.items():
        setattr(processor, name, value)
    return processor


def _checker():
    report = CheckReport()
    return InvariantChecker(_tiny_trace(), report), report


def test_stride_must_be_positive():
    with pytest.raises(ValueError):
        InvariantChecker(_tiny_trace(), CheckReport(), stride=0)


def test_consistent_structures_scan_clean():
    checker, report = _checker()
    entry = SimpleNamespace(seq=3, is_store=True)
    processor = _fake_processor(window=_fake_window([entry]))
    processor.store_buffer.insert(StoreBufferEntry(
        seq=3, addr=0x100, size=4, value=1, data_ready_cycle=0,
    ))
    processor.unexec_stores.on_dispatch(3)
    checker.on_cycle(processor)
    assert report.ok
    assert checker.cycles_checked == 1


def test_window_age_order_violation_detected():
    checker, report = _checker()
    entries = [SimpleNamespace(seq=5, is_store=False),
               SimpleNamespace(seq=2, is_store=False)]
    checker.on_cycle(_fake_processor(window=_fake_window(entries)))
    assert "window-age-order" in report.counts


def test_window_gap_detected():
    # Increasing but not consecutive: ``Window.get`` would find the
    # wrong entry by position.
    checker, report = _checker()
    entries = [SimpleNamespace(seq=3, is_store=False),
               SimpleNamespace(seq=5, is_store=False)]
    checker.on_cycle(_fake_processor(window=_fake_window(entries)))
    assert report.counts == {"window-age-order": 1}


def test_pooled_load_without_generated_address_detected():
    checker, report = _checker()
    processor = _fake_processor()  # at cycle 7
    for seq, agen in ((1, 8), (2, 9)):
        load = Entry(DynInst(seq=seq, pc=4 * seq, op=OpClass.LOAD,
                             addr=0x100), 0)
        load.agen_done = agen
        processor.load_pool.push(load)
    checker.on_cycle(processor)
    # Seq 1 generates its address next cycle; seq 2 is a cycle late.
    assert report.counts == {"mem-pool-agen": 1}
    assert [v.seq for v in report.violations] == [2]


def test_store_buffer_index_divergence_detected():
    checker, report = _checker()
    processor = _fake_processor()
    processor.store_buffer.insert(StoreBufferEntry(
        seq=1, addr=0x100, size=4, value=0, data_ready_cycle=0,
    ))
    processor.store_buffer._seqs[0] = 9  # corrupt the parallel index
    checker.on_cycle(processor)
    assert "store-buffer-index" in report.counts


def test_uncommitted_buffered_store_must_live_in_window():
    checker, report = _checker()
    processor = _fake_processor()  # empty window
    processor.store_buffer.insert(StoreBufferEntry(
        seq=8, addr=0x100, size=4, value=0, data_ready_cycle=0,
    ))
    checker.on_cycle(processor)
    assert "store-buffer-zombie" in report.counts
    # ... but a store at or before the last commit is legitimately
    # window-free (it retired and is draining).
    checker2, report2 = _checker()
    checker2._last_committed = 8
    checker2.on_cycle(processor)
    assert "store-buffer-zombie" not in report2.counts


def test_tracker_membership_violations_detected():
    checker, report = _checker()
    not_store = SimpleNamespace(seq=4, is_store=False)
    processor = _fake_processor(window=_fake_window([not_store]))
    processor.unexec_stores.on_dispatch(2)   # not in the window at all
    processor.barrier_stores.on_dispatch(4)  # in-window, not a store
    checker.on_cycle(processor)
    assert report.counts["tracker-membership"] == 2


def test_stride_skips_intermediate_cycles():
    checker, report = _checker()
    checker.stride = 3
    bad = _fake_processor(window=_fake_window(
        [SimpleNamespace(seq=5, is_store=False),
         SimpleNamespace(seq=2, is_store=False)]
    ))
    checker.on_cycle(bad)  # tick 1: skipped
    checker.on_cycle(bad)  # tick 2: skipped
    assert report.ok
    checker.on_cycle(bad)  # tick 3: scanned
    assert "window-age-order" in report.counts
    assert checker.cycles_checked == 1
