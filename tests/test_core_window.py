"""Unit tests for the instruction window and the dispatch that fills it.

``Processor._dispatch`` wires each new entry's sources through the
window's rename map and appends it; the window retires and squashes.
The capacity guard is the dispatch loop's own occupancy test
(``tests/test_core_invariants.py::test_window_never_overflows``), and
program order is checked by ``InvariantChecker``'s ``window-age-order``.
"""

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.processor import Processor
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.isa.registers import REG_ZERO
from repro.trace.events import Trace


def _inst(seq, op=OpClass.IALU, dest=None, srcs=(), addr=None):
    return DynInst(seq=seq, pc=4 * seq, op=op, dest=dest, srcs=srcs,
                   addr=addr)


def _machine(*insts):
    """A NAS/NAV processor on *insts* with its segment state built."""
    processor = Processor(
        continuous_window_128(SchedulingModel.NAS, SpeculationPolicy.NAIVE),
        Trace(list(insts), name="wiring"),
    )
    processor._begin_segment(0, len(insts))
    return processor


def _dispatch(processor, *insts, cycle=0):
    """Dispatch *insts* at *cycle*; return their window entries."""
    processor.cycle = cycle
    processor.fetch.buffer.extend((inst, cycle) for inst in insts)
    processor._dispatch()
    assert not processor.fetch.buffer
    return [processor.window.get(inst.seq) for inst in insts]


def test_dispatch_links_producer_waiters():
    insts = (_inst(0, dest=5), _inst(1, srcs=(5,)))
    producer, consumer = _dispatch(_machine(*insts), *insts)
    assert consumer.addr_pending == 1
    assert consumer.producers == [producer]
    assert producer.waiters == [(consumer, False)]


def test_completed_producer_sets_ready_time():
    insts = (_inst(0, dest=5), _inst(1, srcs=(5,)))
    processor = _machine(*insts)
    [producer] = _dispatch(processor, insts[0])
    producer.complete_cycle = 42
    [consumer] = _dispatch(processor, insts[1], cycle=10)
    assert consumer.addr_pending == 0
    assert consumer.addr_ready == 42
    assert consumer.producers == [producer]
    assert producer.waiters == ()


def test_store_data_operand_tracked_separately():
    insts = (
        _inst(0, dest=3),
        _inst(1, dest=4),
        _inst(2, op=OpClass.STORE, srcs=(3, 4), addr=0x100),
        # One register as both operands: the position decides.
        _inst(3, op=OpClass.STORE, srcs=(4, 4), addr=0x200),
        # Only a store has a data operand.
        _inst(4, srcs=(3, 4)),
    )
    addr_producer, data_producer, store, same_reg, alu = _dispatch(
        _machine(*insts), *insts
    )
    assert (store.addr_pending, store.data_pending) == (1, 1)
    assert (same_reg.addr_pending, same_reg.data_pending) == (1, 1)
    assert (alu.addr_pending, alu.data_pending) == (2, 0)
    assert addr_producer.waiters == [(store, False), (alu, False)]
    assert data_producer.waiters == [
        (store, True), (same_reg, False), (same_reg, True), (alu, False),
    ]


def test_zero_register_never_a_dependence():
    insts = (_inst(0, dest=REG_ZERO), _inst(1, srcs=(REG_ZERO,)))
    processor = _machine(*insts)
    producer, consumer = _dispatch(processor, *insts)
    assert consumer.addr_pending == 0
    assert consumer.producers == ()
    assert producer.waiters == ()
    assert processor.window._last_writer[REG_ZERO] is None


def test_commit_in_order():
    insts = (_inst(0), _inst(1))
    processor = _machine(*insts)
    first, second = _dispatch(processor, *insts)
    window = processor.window
    assert window.commit_head() is first
    assert window.commit_head() is second
    assert len(window) == 0


def test_squash_truncates_and_rebuilds_rename_map():
    insts = (_inst(0, dest=5), _inst(1, dest=5), _inst(2))
    processor = _machine(*insts)
    old_producer, _, _ = _dispatch(processor, *insts)
    window = processor.window
    squashed = window.squash_from(1)
    assert [e.seq for e in squashed] == [2, 1]
    assert all(e.squashed for e in squashed)
    assert [e.seq for e in window] == [0]
    # The rename map now points at the surviving producer of r5.
    assert window._last_writer[5] is old_producer


def test_redispatch_after_squash():
    insts = (_inst(0), _inst(1, dest=5), _inst(2, srcs=(5,)))
    processor = _machine(*insts)
    _dispatch(processor, *insts[:2])
    processor.window.squash_from(1)
    again, consumer = _dispatch(processor, *insts[1:], cycle=1)
    assert len(processor.window) == 3
    assert processor.window.get(1) is again
    assert consumer.producers == [again]


def test_get_by_seq():
    insts = tuple(_inst(seq) for seq in range(4))
    processor = _machine(*insts)
    entries = _dispatch(processor, *insts)
    window = processor.window
    assert [window.get(seq) for seq in range(4)] == entries
    assert window.get(9) is None
    window.commit_head()
    # Found by offset from the new head; a retired seq is not found
    # (a negative offset must not wrap to the young end).
    assert window.get(0) is None
    assert [window.get(seq) for seq in range(1, 4)] == entries[1:]
    assert window.get(4) is None
