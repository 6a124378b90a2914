"""Program representation for the assembly VM."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import OpClass


@dataclass(frozen=True)
class VMInst:
    """One assembled instruction with full execution semantics.

    ``dest``/``srcs`` use the flat register namespace of
    :mod:`repro.isa.registers`. ``imm`` is the immediate operand (also the
    branch/jump target PC after label resolution).
    """

    pc: int
    mnemonic: str
    op: OpClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    imm: int = 0
    #: Source line for diagnostics.
    text: str = ""


@dataclass
class Program:
    """An assembled program: instructions indexed by ``pc // 4``."""

    instructions: List[VMInst]
    labels: Dict[str, int] = field(default_factory=dict)
    name: str = "program"

    def __post_init__(self) -> None:
        for i, inst in enumerate(self.instructions):
            if inst.pc != i * 4:
                raise ValueError(
                    f"{self.name}: instruction {i} has pc {inst.pc:#x}, "
                    f"expected {i * 4:#x}"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def at(self, pc: int) -> VMInst:
        """Instruction at byte address *pc*."""
        index = pc // 4
        if pc % 4 or not 0 <= index < len(self.instructions):
            raise ValueError(f"{self.name}: no instruction at pc {pc:#x}")
        return self.instructions[index]

    def label_pc(self, label: str) -> int:
        """Byte address of *label*."""
        if label not in self.labels:
            raise KeyError(f"{self.name}: unknown label {label!r}")
        return self.labels[label]
