"""Unit tests for static/dynamic instruction records."""

import pytest

from repro.isa.instruction import DynInst, StaticInst, TraceSummary
from repro.isa.opcodes import OpClass


def test_static_inst_validation():
    inst = StaticInst(pc=0, op=OpClass.IALU, dest=1, srcs=(2, 3))
    assert inst.pc == 0
    with pytest.raises(ValueError):
        StaticInst(pc=0, op=OpClass.IALU, dest=-1)
    with pytest.raises(ValueError):
        StaticInst(pc=0, op=OpClass.IALU, srcs=(-2,))


def test_static_inst_rejects_registers_past_the_namespace():
    StaticInst(pc=0, op=OpClass.IALU, dest=66, srcs=(0, 66))
    with pytest.raises(ValueError, match="dest register 67"):
        StaticInst(pc=0, op=OpClass.IALU, dest=67)
    with pytest.raises(ValueError, match="source register 70"):
        StaticInst(pc=0, op=OpClass.IALU, srcs=(1, 70))


def test_dyninst_memory_requires_address():
    with pytest.raises(ValueError):
        DynInst(seq=0, pc=0, op=OpClass.LOAD)
    inst = DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0x100)
    assert inst.is_load and inst.is_mem and not inst.is_store


def test_dyninst_size_positive():
    with pytest.raises(ValueError):
        DynInst(seq=0, pc=0, op=OpClass.STORE, addr=4, size=0)


def test_overlap_detection():
    a = DynInst(seq=0, pc=0, op=OpClass.STORE, addr=0x100, size=4)
    b = DynInst(seq=1, pc=4, op=OpClass.LOAD, addr=0x102, size=4)
    c = DynInst(seq=2, pc=8, op=OpClass.LOAD, addr=0x104, size=4)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)
    alu = DynInst(seq=3, pc=12, op=OpClass.IALU)
    assert not a.overlaps(alu)


def test_branch_properties():
    br = DynInst(seq=0, pc=0, op=OpClass.BRANCH, taken=True, target=64)
    assert br.is_branch and not br.is_mem


def test_trace_summary_counts():
    summary = TraceSummary()
    summary.add(DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0))
    summary.add(DynInst(seq=1, pc=4, op=OpClass.STORE, addr=4))
    summary.add(DynInst(seq=2, pc=8, op=OpClass.BRANCH, taken=False,
                        target=12))
    summary.add(DynInst(seq=3, pc=12, op=OpClass.IALU))
    assert summary.instructions == 4
    assert summary.loads == 1 and summary.stores == 1
    assert summary.branches == 1
    assert summary.load_fraction == 0.25
    assert summary.class_count(OpClass.IALU) == 1
