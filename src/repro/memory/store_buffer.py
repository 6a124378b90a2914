"""Store buffer with load forwarding (Table 2).

"128-entry. Does not combine store requests to L1 data cache. Combines
store requests for load forwarding."

Committed and issued-but-not-yet-written stores live here. Loads search
the buffer youngest-older-than-me first; a full overlap forwards the
value, a partial overlap forces the load to wait for the store to drain
(the classic partial-forwarding replay case, modelled as a wait).
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple


class StoreBufferEntry:
    """One buffered store.

    A plain slotted class rather than a dataclass: one entry is built
    per executed store, and the dataclass ``__init__`` plus the
    per-instance dict are measurable on that path (``slots=True`` would
    do, but the py3.9 leg predates it).

    ``data_ready_cycle`` is when the store's data is available for
    forwarding; ``drain_cycle`` is when it has drained to the data
    cache (None while still buffered).
    """

    __slots__ = (
        "seq", "addr", "size", "value", "data_ready_cycle", "drain_cycle",
    )

    def __init__(
        self,
        seq: int,
        addr: int,
        size: int,
        value: Optional[int],
        data_ready_cycle: int,
        drain_cycle: Optional[int] = None,
    ) -> None:
        self.seq = seq
        self.addr = addr
        self.size = size
        self.value = value
        self.data_ready_cycle = data_ready_cycle
        self.drain_cycle = drain_cycle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreBufferEntry(seq={self.seq}, addr={self.addr}, "
            f"size={self.size}, value={self.value}, "
            f"data_ready_cycle={self.data_ready_cycle}, "
            f"drain_cycle={self.drain_cycle})"
        )


class StoreBuffer:
    """Bounded buffer of stores awaiting write-back, with forwarding."""

    def __init__(self, capacity: int = 128, observer=None) -> None:
        if capacity < 1:
            raise ValueError("store buffer needs at least one entry")
        self.capacity = capacity
        #: Optional observability bus (repro.observe): occupancy
        #: high-water and forward/partial counters.
        self.observer = observer
        self._entries: List[StoreBufferEntry] = []
        #: Parallel seq list so insert/search bisect instead of building
        #: a key list (insert) or scanning younger entries (search).
        self._seqs: List[int] = []
        #: Count of buffered stores covering each 8-byte block. Most
        #: load searches find no overlapping store at all; this filter
        #: answers those without scanning the buffer (block-granular, so
        #: a hit only means "scan to be sure").
        self._blocks: dict = {}
        self.forwards = 0
        self.partial_overlaps = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def insert(self, entry: StoreBufferEntry) -> None:
        """Insert a store, keeping entries sorted by program order.

        Stores *execute* out of order, so insertion is by binary search
        on the sequence number rather than append.
        """
        if self.full:
            raise RuntimeError("store buffer overflow")
        seqs = self._seqs
        index = bisect.bisect_left(seqs, entry.seq)
        if index < len(seqs) and seqs[index] == entry.seq:
            raise ValueError(f"duplicate store seq {entry.seq}")
        self._entries.insert(index, entry)
        seqs.insert(index, entry.seq)
        if self.observer is not None:
            self.observer.note_depth(
                "store-buffer", len(self._entries)
            )
        blocks = self._blocks
        for block in range(
            entry.addr >> 3, ((entry.addr + entry.size - 1) >> 3) + 1
        ):
            blocks[block] = blocks.get(block, 0) + 1

    def _uncover(self, entry: StoreBufferEntry) -> None:
        blocks = self._blocks
        for block in range(
            entry.addr >> 3, ((entry.addr + entry.size - 1) >> 3) + 1
        ):
            count = blocks[block] - 1
            if count:
                blocks[block] = count
            else:
                del blocks[block]

    def search(
        self, seq: int, addr: int, size: int
    ) -> Tuple[Optional[StoreBufferEntry], bool]:
        """Find the youngest older store overlapping [addr, addr+size).

        Returns ``(entry, full_overlap)``. ``entry`` is None when no older
        buffered store overlaps. ``full_overlap`` is True when the store
        covers every byte of the load (so its value can be forwarded).
        """
        blocks = self._blocks
        end = addr + size
        for block in range(addr >> 3, ((end - 1) >> 3) + 1):
            if block in blocks:
                break
        else:
            return None, False
        entries = self._entries
        # Entries are seq-sorted: everything before this index is older,
        # so the youngest-first scan starts there (younger stores are
        # never even touched).
        for index in range(bisect.bisect_left(self._seqs, seq) - 1, -1, -1):
            entry = entries[index]
            entry_addr = entry.addr
            if entry_addr < end and addr < entry_addr + entry.size:
                full = entry_addr <= addr and (
                    entry_addr + entry.size >= end
                )
                if full:
                    self.forwards += 1
                    if self.observer is not None:
                        self.observer.note("store-buffer.forward")
                else:
                    self.partial_overlaps += 1
                    if self.observer is not None:
                        self.observer.note("store-buffer.partial")
                return entry, full
        return None, False

    def evict_oldest_before(self, seq: int) -> bool:
        """Drop the oldest buffered store if it is older than *seq*.

        Entries are seq-sorted, so the head is the only candidate. The
        processor uses this to free a slot when the buffer is full:
        only stores already retired past the window head may be evicted.
        """
        if self._entries and self._seqs[0] < seq:
            self._uncover(self._entries[0])
            del self._entries[0]
            del self._seqs[0]
            return True
        return False

    def remove(self, seq: int) -> None:
        """Remove the entry with sequence number *seq*, if present."""
        seqs = self._seqs
        index = bisect.bisect_left(seqs, seq)
        if index < len(seqs) and seqs[index] == seq:
            self._uncover(self._entries[index])
            del self._entries[index]
            del seqs[index]

    def squash_younger(self, seq: int) -> None:
        """Drop all stores with sequence number >= *seq* (mis-speculation)."""
        cut = bisect.bisect_left(self._seqs, seq)
        for entry in self._entries[cut:]:
            self._uncover(entry)
        del self._entries[cut:]
        del self._seqs[cut:]

    def entries(self) -> Tuple[StoreBufferEntry, ...]:
        """Snapshot of buffered stores in program order."""
        return tuple(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._seqs.clear()
        self._blocks.clear()
