"""Issue machinery: ready pools with program-order priority, FU tracking.

The ready pool is a min-heap keyed by sequence number — older ready
instructions always issue first, the defining scheduling property of the
paper's centralized continuous window.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.config.processor import WindowConfig
from repro.core.window import Entry
from repro.isa.opcodes import FP_CLASSES, OpClass


class ReadyPool:
    """Seq-ordered pool of entries whose operands are ready."""

    def __init__(self) -> None:
        self._heap: List = []

    def push(self, entry: Entry) -> None:
        if entry.in_ready_pool or entry.squashed:
            return
        entry.in_ready_pool = True
        heapq.heappush(self._heap, (entry.seq, entry))

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def pop(self) -> Optional[Entry]:
        """Oldest live entry, or None (``_issue_exec`` inlines this)."""
        while self._heap:
            _, entry = heapq.heappop(self._heap)
            entry.in_ready_pool = False
            if not entry.squashed:
                return entry
        return None

    def clear(self) -> None:
        for _, entry in self._heap:
            entry.in_ready_pool = False
        self._heap.clear()


class FunctionalUnits:
    """Per-cycle functional-unit and bandwidth accounting.

    Table 2: "8 copies of all functional units. All are fully-pipelined."
    We model two pools (integer + branch + AGU, and floating point), each
    accepting ``fu_copies`` new operations per cycle, under a shared
    ``issue_width`` cap; memory accesses are limited by ``memory_ports``.

    The processor's issue loops read and write the counters directly:
    ``_issue_exec`` keeps the slot and FU counts in locals and
    ``_issue_memory`` the port count, each writing them back before
    anything else reads them.
    """

    def __init__(self, config: WindowConfig) -> None:
        self.config = config
        # Hot-path copies: the per-cycle issue loops read these limits
        # many times and the config is immutable.
        self._issue_width = config.issue_width
        self._fu_copies = config.fu_copies
        self._memory_ports = config.memory_ports
        self._cycle = -1
        self._issued = 0
        self._int_used = 0
        self._fp_used = 0
        self._ports_used = 0

    def begin_cycle(self, cycle: int) -> None:
        self._cycle = cycle
        self._issued = 0
        self._int_used = 0
        self._fp_used = 0
        self._ports_used = 0

    @property
    def issue_slots_left(self) -> int:
        return self._issue_width - self._issued

    @property
    def ports_left(self) -> int:
        return self._memory_ports - self._ports_used

    @property
    def issued_this_cycle(self) -> int:
        return self._issued

    @property
    def ports_used_this_cycle(self) -> int:
        return self._ports_used

    def can_issue(self, op: OpClass) -> bool:
        """Would an op of class *op* find a slot and a unit this cycle?"""
        if self._issued >= self._issue_width:
            return False
        if op in FP_CLASSES:
            return self._fp_used < self._fu_copies
        return self._int_used < self._fu_copies

    def take_issue(self, op: OpClass) -> None:
        """Consume one issue slot plus the matching FU."""
        self._issued += 1
        if op in FP_CLASSES:
            self._fp_used += 1
        else:
            self._int_used += 1

    def can_access_memory(self) -> bool:
        return self._ports_used < self._memory_ports

    def take_port(self) -> None:
        self._ports_used += 1
