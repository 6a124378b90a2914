"""The instruction window (RUU-style reorder buffer) and its entries.

*Centralized, continuous window*: instructions enter in program order,
occupy one entry until commit, and all scheduling decisions prefer older
instructions (program-order priority). Squash invalidation truncates the
window from the youngest end.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.isa.registers import TOTAL_REGS


class Entry:
    """One in-flight dynamic instruction.

    ``producers``, ``waiters`` and ``consumers`` link entries to each
    other both ways. They start as one shared empty tuple; the first
    link makes a list. They are readable only while the entry is in
    flight: commit drops ``producers`` and ``consumers`` (after the
    commit is observed) and a squash drops all three, so a finished run
    leaves no reference cycles for the garbage collector.
    """

    __slots__ = (
        "inst", "seq", "dispatch_cycle",
        # class flags, resolved once at construction (hot-path reads)
        "is_load", "is_store", "is_branch", "uses_fp_unit",
        # operand tracking: 'addr' covers every source except a store's
        # data operand, which is tracked separately so the two-phase AS
        # store model (address early, data late) is expressible.
        "addr_pending", "addr_ready", "data_pending", "data_ready",
        "issue_cycle", "agen_done", "mem_issue_cycle",
        "complete_cycle", "write_cycle",
        "executed", "squashed", "in_ready_pool", "in_mem_pool",
        "waiters", "producers", "consumers",
        # memory-dependence bookkeeping
        "dep_store_seq", "stale_equal", "speculative",
        "forwarded_from",
        # policy annotations
        "sync_synonym", "sync_wait_store", "predicted_dep", "barrier",
        # Table 3 accounting
        "fd_wait_start", "fd_class", "fd_resolved_cycle",
        # observability (repro.observe): first blocked event emitted
        "observed_blocked",
    )

    def __init__(self, inst: DynInst, dispatch_cycle: int) -> None:
        self.inst = inst
        self.seq = inst.seq
        self.dispatch_cycle = dispatch_cycle
        op = inst.op
        self.is_load = op is OpClass.LOAD
        self.is_store = op is OpClass.STORE
        self.is_branch = op.branch_class
        self.uses_fp_unit = op.fp_class
        self.addr_pending = 0
        self.addr_ready = dispatch_cycle
        self.data_pending = 0
        self.data_ready = dispatch_cycle
        self.issue_cycle: Optional[int] = None
        self.agen_done: Optional[int] = None
        self.mem_issue_cycle: Optional[int] = None
        self.complete_cycle: Optional[int] = None
        self.write_cycle: Optional[int] = None
        self.executed = False
        self.squashed = False
        self.in_ready_pool = False
        self.in_mem_pool = False
        #: (entry, is_data) of consumers waiting on this entry.
        self.waiters: Sequence[Tuple["Entry", bool]] = ()
        #: In-flight producers this entry depended on at dispatch
        #: (used by selective-invalidation recovery).
        self.producers: Sequence["Entry"] = ()
        #: Consumers already woken by this entry's completion (kept for
        #: the AS/NAV value-propagation test).
        self.consumers: Sequence[Tuple["Entry", bool]] = ()
        self.dep_store_seq: Optional[int] = None
        self.stale_equal = True
        self.speculative = False
        self.forwarded_from: Optional[int] = None
        self.sync_synonym: Optional[int] = None
        self.sync_wait_store: Optional["Entry"] = None
        self.predicted_dep = False
        self.barrier = False
        self.fd_wait_start: Optional[int] = None
        self.fd_class: Optional[str] = None  # "false" | "true" | None
        self.fd_resolved_cycle: Optional[int] = None
        self.observed_blocked = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "squashed" if self.squashed else (
            "done" if self.complete_cycle is not None else "inflight"
        )
        return f"<Entry seq={self.seq} {self.inst.op.name} {state}>"


class Window:
    """Program-ordered window with a register rename map.

    The rename map ``_last_writer`` is a list indexed by flat register
    number (``repro.isa.registers``) holding each register's youngest
    in-flight writer, or None. ``REG_ZERO``'s slot is never written.
    Traces reject register indices outside ``0..TOTAL_REGS-1``, so a
    source can be looked up without a range test.

    ``Processor._dispatch`` inserts entries: it wires each one's
    sources through the rename map, claims its destination's slot and
    appends it to ``_entries``. The window retires and squashes them.

    ``_entries`` always holds a gap-free run of seqs: dispatch appends
    in program order, commit pops the oldest, and a squash truncates
    the young end while fetch rewinds to the squashed seq. So an
    entry's position is its seq's offset from the head's
    (``InvariantChecker``'s ``window-age-order`` checks the run).
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("window size must be positive")
        self.size = size
        self._entries: Deque[Entry] = deque()
        self._last_writer: List[Optional[Entry]] = [None] * TOTAL_REGS

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def get(self, seq: int) -> Optional[Entry]:
        """The in-flight entry with *seq*, or None."""
        entries = self._entries
        if entries:
            index = seq - entries[0].seq
            if 0 <= index < len(entries):
                return entries[index]
        return None

    def commit_head(self) -> Entry:
        """Remove and return the oldest entry."""
        entry = self._entries.popleft()
        dest = entry.inst.dest
        if dest is not None and self._last_writer[dest] is entry:
            self._last_writer[dest] = None
        return entry

    def squash_from(self, seq: int) -> List[Entry]:
        """Invalidate every entry with ``entry.seq >= seq``.

        Returns the squashed entries (youngest first), their links to
        other entries dropped. Only rename-map slots owned by a
        squashed writer are repaired (by scanning the survivors
        youngest-first for a replacement); a squash whose victims wrote
        no register leaves the map untouched.
        """
        squashed: List[Entry] = []
        entries = self._entries
        last_writer = self._last_writer
        dirty = None
        while entries and entries[-1].seq >= seq:
            entry = entries.pop()
            entry.squashed = True
            entry.producers = entry.waiters = entry.consumers = ()
            squashed.append(entry)
            dest = entry.inst.dest
            if dest is not None and last_writer[dest] is entry:
                last_writer[dest] = None
                if dirty is None:
                    dirty = set()
                dirty.add(dest)
        if dirty:
            for entry in reversed(entries):
                dest = entry.inst.dest
                if dest in dirty:
                    last_writer[dest] = entry
                    dirty.discard(dest)
                    if not dirty:
                        break
        return squashed
