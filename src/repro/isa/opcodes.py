"""Instruction classification.

The timing simulator does not need full MIPS semantics; it needs to know,
for every dynamic instruction, which functional-unit class executes it,
whether it references memory, and whether it redirects control flow.
``OpClass`` captures exactly that. The functional VM (``repro.vm``)
additionally carries concrete mnemonics, but those all map down to one of
these classes before the timing core sees them.
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Functional-unit class of an instruction (Table 2 of the paper)."""

    IALU = "ialu"  # integer add/sub/logic/shift/compare, 1 cycle
    IMUL = "imul"  # integer multiply, 4 cycles
    IDIV = "idiv"  # integer divide, 12 cycles
    FADD = "fadd"  # FP add/sub/compare (SP and DP), 2 cycles
    FMUL_SP = "fmul_sp"  # FP multiply single precision, 4 cycles
    FMUL_DP = "fmul_dp"  # FP multiply double precision, 5 cycles
    FDIV_SP = "fdiv_sp"  # FP divide single precision, 12 cycles
    FDIV_DP = "fdiv_dp"  # FP divide double precision, 15 cycles
    LOAD = "load"  # memory read
    STORE = "store"  # memory write
    BRANCH = "branch"  # conditional branch
    JUMP = "jump"  # unconditional jump (direct or indirect)
    CALL = "call"  # subroutine call (pushes return-address stack)
    RETURN = "return"  # subroutine return (pops return-address stack)
    NOP = "nop"  # no operation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpClass.{self.name}"


#: Classes that access data memory.
MEM_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})

#: Classes that may redirect the fetch stream.
BRANCH_CLASSES = frozenset(
    {OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RETURN}
)

#: Classes executed by the integer ALUs (single-cycle pool).
INT_CLASSES = frozenset({OpClass.IALU, OpClass.IMUL, OpClass.IDIV})

#: Classes executed by the floating-point units.
FP_CLASSES = frozenset(
    {
        OpClass.FADD,
        OpClass.FMUL_SP,
        OpClass.FMUL_DP,
        OpClass.FDIV_SP,
        OpClass.FDIV_DP,
    }
)


# Precomputed per-member flags: hot paths read ``op.mem_class`` etc. as
# a plain attribute instead of hashing the member into a frozenset
# (Enum.__hash__ is a Python-level call and shows up in profiles).
# ``op.index`` is the member's position, for per-class tables kept as
# tuples instead of dicts keyed by the member.
for _index, _op in enumerate(OpClass):
    _op.index = _index
    _op.mem_class = _op in MEM_CLASSES
    _op.branch_class = _op in BRANCH_CLASSES
    _op.fp_class = _op in FP_CLASSES
del _index, _op


def is_load(op: OpClass) -> bool:
    """Return True if *op* reads data memory."""
    return op is OpClass.LOAD


def is_store(op: OpClass) -> bool:
    """Return True if *op* writes data memory."""
    return op is OpClass.STORE


def is_mem(op: OpClass) -> bool:
    """Return True if *op* references data memory."""
    return op in MEM_CLASSES


def is_branch(op: OpClass) -> bool:
    """Return True if *op* may redirect control flow."""
    return op in BRANCH_CLASSES
