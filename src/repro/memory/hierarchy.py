"""Wires the I-cache, D-cache, unified L2, and main memory together.

The L2 of Table 2 has an "8 cycle + #4-word-transfer * 1 cycle" hit time;
we fold the transfer term into the hit latency for the 32-byte L1 block
(32 bytes = 2 four-word bursts = 2 extra cycles).
"""

from __future__ import annotations

from repro.config.processor import ProcessorConfig
from repro.memory.cache import SetAssocCache
from repro.memory.main_memory import MainMemory


class MemoryHierarchy:
    """Instruction and data paths through the cache hierarchy."""

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self.main_memory = MainMemory(
            config.main_memory, block_bytes=config.l2.block_bytes
        )
        self.l2 = SetAssocCache(config.l2, self.main_memory.access)
        # L1 block transfer out of L2: 1 cycle per 4-word burst.
        l1_words = config.dcache.block_bytes // 4
        transfer = (l1_words + 3) // 4
        l2_access = self.l2.access

        # A closure, not a bound method: the L1s then hold no reference
        # back to this hierarchy, so a finished machine is freed by
        # reference counting instead of waiting for the cycle collector.
        def l2_fill(addr: int, cycle: int, write: bool) -> int:
            return l2_access(addr, cycle, write) + transfer

        self.dcache = SetAssocCache(config.dcache, l2_fill)
        self.icache = SetAssocCache(config.icache, l2_fill)

    # -- public access points ------------------------------------------------

    def load(self, addr: int, cycle: int) -> int:
        """Completion cycle of a data load issued at *cycle*."""
        return self.dcache.access(addr, cycle, False)

    def store(self, addr: int, cycle: int) -> int:
        """Completion cycle of a data store issued at *cycle*."""
        return self.dcache.access(addr, cycle, True)

    def fetch(self, addr: int, cycle: int) -> int:
        """Completion cycle of an instruction fetch issued at *cycle*."""
        return self.icache.access(addr, cycle, False)

    def warm(self, addresses, instructions=()) -> None:
        """Pre-touch *addresses* (data) and *instructions* (code).

        Used by the sampling machinery: during functional-only intervals
        the caches keep being exercised so that timing intervals start
        warm, mirroring the paper's methodology ("during the functional
        portion ... I-cache, D-cache and branch prediction" are
        simulated). Blocks install immediately, with no timing effects.
        """
        for addr in addresses:
            self.dcache.touch(addr)
            self.l2.touch(addr)
        for addr in instructions:
            self.icache.touch(addr)
            self.l2.touch(addr)
