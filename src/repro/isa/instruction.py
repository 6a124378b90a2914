"""Static and dynamic instruction records.

``StaticInst`` is one instruction of a *program* (a fixed PC). ``DynInst``
is one element of the *dynamic execution trace*: a specific execution of a
static instruction, with its runtime-computed effective address, value and
branch outcome attached. The timing simulator consumes ``DynInst`` streams;
because the stream is in program order, register renaming reduces to
"depend on the youngest older writer of each source register".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.opcodes import OpClass, is_branch, is_mem
from repro.isa.registers import TOTAL_REGS


@dataclass(frozen=True)
class StaticInst:
    """A static instruction: what the program text says at one PC."""

    pc: int
    op: OpClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    #: Free-form mnemonic for diagnostics (assembler fills this in).
    mnemonic: str = ""

    def __post_init__(self) -> None:
        if self.dest is not None and not 0 <= self.dest < TOTAL_REGS:
            raise ValueError(
                f"dest register {self.dest} is outside "
                f"0..{TOTAL_REGS - 1}"
            )
        for src in self.srcs:
            if not 0 <= src < TOTAL_REGS:
                raise ValueError(
                    f"source register {src} is outside "
                    f"0..{TOTAL_REGS - 1}"
                )


@dataclass
class DynInst:
    """One dynamic instruction in the execution trace.

    Attributes:
        seq: dynamic sequence number; strictly increasing in program order.
        pc: static program counter of the instruction.
        op: functional-unit class.
        dest: flat destination register index, or None.
        srcs: flat source register indices (empty tuple if none).
        addr: effective memory address (loads/stores only).
        size: access size in bytes (loads/stores only).
        value: value loaded or stored, from functional execution.
        taken: branch outcome (branch classes only).
        target: next PC actually executed (branch classes only).
    """

    seq: int
    pc: int
    op: OpClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    addr: Optional[int] = None
    size: int = 4
    value: Optional[int] = None
    taken: Optional[bool] = None
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if is_mem(self.op) and self.addr is None:
            raise ValueError(
                f"memory instruction at pc={self.pc:#x} has no address"
            )
        if self.size <= 0:
            raise ValueError("access size must be positive")

    @property
    def is_load(self) -> bool:
        return self.op is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op is OpClass.STORE

    @property
    def is_mem(self) -> bool:
        return is_mem(self.op)

    @property
    def is_branch(self) -> bool:
        return is_branch(self.op)

    def overlaps(self, other: "DynInst") -> bool:
        """True if this access and *other* touch any common byte."""
        if self.addr is None or other.addr is None:
            return False
        return (
            self.addr < other.addr + other.size
            and other.addr < self.addr + self.size
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bits = [f"seq={self.seq}", f"pc={self.pc:#x}", self.op.name]
        if self.addr is not None:
            bits.append(f"addr={self.addr:#x}")
        if self.taken is not None:
            bits.append("taken" if self.taken else "not-taken")
        return f"<DynInst {' '.join(bits)}>"


@dataclass
class TraceSummary:
    """Aggregate composition of a trace (used for calibration checks)."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    _classes: dict = field(default_factory=dict)

    def add(self, inst: DynInst) -> None:
        self.instructions += 1
        if inst.is_load:
            self.loads += 1
        elif inst.is_store:
            self.stores += 1
        if inst.is_branch:
            self.branches += 1
        self._classes[inst.op] = self._classes.get(inst.op, 0) + 1

    @property
    def load_fraction(self) -> float:
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def store_fraction(self) -> float:
        return self.stores / self.instructions if self.instructions else 0.0

    def class_count(self, op: OpClass) -> int:
        return self._classes.get(op, 0)
