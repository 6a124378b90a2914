"""The dynamic execution trace: an ordered list of :class:`DynInst`.

A trace comes from functional execution (``repro.vm``) or from the
synthetic workload generator (``repro.workloads``). Because it is the
*correct-path* instruction stream, squash recovery is modelled by
re-dispatching from the squashed instruction onward — memory dependence
miss-speculation never changes the control path, only timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.isa.instruction import DynInst, TraceSummary
from repro.isa.registers import TOTAL_REGS


@dataclass
class Trace:
    """A complete dynamic instruction trace plus provenance metadata."""

    instructions: List[DynInst]
    name: str = "trace"
    #: Optional tag: "int" or "fp" (SPEC'95 class) for summary grouping.
    suite: Optional[str] = None
    #: Where this trace came from, when the catalog produced it:
    #: ``(name, length, seed, generator_version)``. Keys the dependence
    #: memos so analyses survive trace-cache eviction and can be shared
    #: across processes. ``None`` for hand-built traces. Excluded from
    #: equality: two traces with identical instructions are the same
    #: trace regardless of how they were obtained.
    provenance: Optional[Tuple[str, int, int, str]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        # The timing core indexes its rename map by register number, so
        # an index outside the flat namespace would alias another
        # register (-1 reads slot 66) instead of failing.
        registers = range(TOTAL_REGS)
        for i, inst in enumerate(self.instructions):
            if inst.seq != i:
                raise ValueError(
                    f"trace {self.name}: instruction {i} has seq "
                    f"{inst.seq}; sequence numbers must be 0..N-1"
                )
            dest = inst.dest
            if dest is not None and dest not in registers:
                raise ValueError(
                    f"trace {self.name}: instruction {i} has destination "
                    f"register {dest}; registers are 0..{TOTAL_REGS - 1}"
                )
            for src in inst.srcs:
                if src not in registers:
                    raise ValueError(
                        f"trace {self.name}: instruction {i} has source "
                        f"register {src}; registers are "
                        f"0..{TOTAL_REGS - 1}"
                    )

    @classmethod
    def trusted(
        cls,
        instructions: List[DynInst],
        name: str = "trace",
        suite: Optional[str] = None,
        provenance: Optional[Tuple[str, int, int, str]] = None,
    ) -> "Trace":
        """Construct without the O(n) seq and register validation.

        For producers that guarantee ``seq == index`` and register
        indices in ``0..TOTAL_REGS-1`` by construction: the
        compiled-trace materializer, and the synthetic generator
        (``seq=len(out)``, registers from ``int_reg``/``fp_reg``).
        Everything else should use the normal constructor.
        """
        trace = cls.__new__(cls)
        trace.instructions = instructions
        trace.name = name
        trace.suite = suite
        trace.provenance = provenance
        return trace

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, seq: int) -> DynInst:
        return self.instructions[seq]

    def __iter__(self):
        return iter(self.instructions)

    def summary(self) -> TraceSummary:
        """Aggregate composition (load/store/branch fractions)."""
        summary = TraceSummary()
        for inst in self.instructions:
            summary.add(inst)
        return summary

    def slice(self, start: int, stop: int) -> Sequence[DynInst]:
        """Instructions with ``start <= seq < stop``."""
        return self.instructions[start:stop]

    @staticmethod
    def from_iterable(
        instructions: Iterable[DynInst],
        name: str = "trace",
        suite: Optional[str] = None,
    ) -> "Trace":
        return Trace(list(instructions), name=name, suite=suite)
