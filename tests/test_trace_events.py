"""Unit tests for the Trace container."""

import pytest

from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.trace.events import Trace


def _mini_trace():
    return Trace(
        [
            DynInst(seq=0, pc=0, op=OpClass.IALU, dest=1),
            DynInst(seq=1, pc=4, op=OpClass.LOAD, dest=2, addr=0x100),
            DynInst(seq=2, pc=8, op=OpClass.STORE, addr=0x104, value=7,
                    srcs=(1, 2)),
        ],
        name="mini",
        suite="int",
    )


def test_sequence_numbers_validated():
    with pytest.raises(ValueError):
        Trace([DynInst(seq=5, pc=0, op=OpClass.IALU)])


@pytest.mark.parametrize("inst,register", [
    (DynInst(seq=0, pc=0, op=OpClass.IALU, dest=1, srcs=(-1,)), "-1"),
    (DynInst(seq=0, pc=0, op=OpClass.IALU, dest=67, srcs=(2,)), "67"),
])
def test_register_indices_validated(inst, register):
    # The rename map is a list indexed by register number: -1 would
    # alias FSR (66) and 67 is past its end, so both are rejected.
    with pytest.raises(ValueError, match=f"register {register};"):
        Trace([inst], name="bad-registers")


def test_synthetic_traces_stay_in_the_register_namespace():
    # The generator builds with Trace.trusted, which skips validation.
    from repro.isa.registers import TOTAL_REGS
    from repro.workloads.catalog import get_trace

    for name in ("126.gcc", "102.swim"):
        trace = get_trace(name, 2_000, seed=0)
        assert [inst.seq for inst in trace] == list(range(len(trace)))
        for inst in trace:
            regs = inst.srcs if inst.dest is None else (
                inst.dest, *inst.srcs
            )
            assert all(0 <= reg < TOTAL_REGS for reg in regs)


def test_indexing_and_iteration():
    trace = _mini_trace()
    assert len(trace) == 3
    assert trace[1].is_load
    assert [i.seq for i in trace] == [0, 1, 2]


def test_summary():
    summary = _mini_trace().summary()
    assert summary.loads == 1 and summary.stores == 1
    assert summary.instructions == 3


def test_slice():
    trace = _mini_trace()
    assert [i.seq for i in trace.slice(1, 3)] == [1, 2]


def test_from_iterable():
    trace = Trace.from_iterable(
        iter([DynInst(seq=0, pc=0, op=OpClass.NOP)]), name="x"
    )
    assert len(trace) == 1 and trace.name == "x"
