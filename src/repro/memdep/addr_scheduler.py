"""Address-based load/store scheduler (the AS configurations).

Stores post their addresses as soon as their base register is available;
loads, before accessing memory, search the posted addresses of older
in-window stores. The scheduler's latency parameter (0, 1 or 2 cycles —
Figure 3's sweep) delays every search and post, modelling the cost of a
real associative structure.
"""

from __future__ import annotations

import bisect
from typing import List


class _PostedStore:
    __slots__ = ("seq", "addr", "size", "posted_cycle", "entry")

    def __init__(self, seq: int, addr: int, size: int,
                 posted_cycle: int, entry) -> None:
        self.seq = seq
        self.addr = addr
        self.size = size
        self.posted_cycle = posted_cycle
        self.entry = entry


class AddressScheduler:
    """Posted-address bookkeeping for in-window stores."""

    def __init__(self, latency: int = 0, observer=None) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.latency = latency
        #: Optional observability bus (repro.observe): post counts and
        #: posted-record occupancy high-water.
        self.observer = observer
        #: Store seqs dispatched but whose address is not yet posted,
        #: kept sorted (dispatch is in program order; squash truncates).
        self._unposted: List[int] = []
        #: Posted records, seq-sorted, with a parallel seq list so the
        #: per-load queries bisect and scan without dict lookups.
        self._posted_seqs: List[int] = []
        self._records: List[_PostedStore] = []
        #: Count of posted stores covering each 8-byte block. Most load
        #: searches find no overlapping store; this filter answers those
        #: in O(1) (block-granular: a hit only means "scan to be sure").
        self._blocks: dict = {}
        #: Upper bound on every record's ``posted_cycle``. May be stale
        #: high after removals — that only disables a fast path, never
        #: a correct answer.
        self._max_visible = -1

    # -- store lifecycle -----------------------------------------------------

    def on_store_dispatch(self, seq: int) -> None:
        """A store entered the window; its address is not yet known."""
        if self._unposted and seq <= self._unposted[-1]:
            raise ValueError("stores must dispatch in program order")
        self._unposted.append(seq)

    def post_address(self, entry, cycle: int) -> int:
        """Post a store's computed address; returns its visibility cycle."""
        seq = entry.seq
        index = bisect.bisect_left(self._unposted, seq)
        if index < len(self._unposted) and self._unposted[index] == seq:
            self._unposted.pop(index)
        visible = cycle + self.latency
        addr = entry.inst.addr
        size = entry.inst.size
        record = _PostedStore(seq, addr, size, visible, entry)
        index = bisect.bisect_left(self._posted_seqs, seq)
        self._posted_seqs.insert(index, seq)
        self._records.insert(index, record)
        blocks = self._blocks
        for block in range(addr >> 3, ((addr + size - 1) >> 3) + 1):
            blocks[block] = blocks.get(block, 0) + 1
        if visible > self._max_visible:
            self._max_visible = visible
        if self.observer is not None:
            self.observer.note("addr-sched.post")
            self.observer.note_depth("addr-sched", len(self._records))
        return visible

    def _uncover(self, record: _PostedStore) -> None:
        blocks = self._blocks
        for block in range(
            record.addr >> 3, ((record.addr + record.size - 1) >> 3) + 1
        ):
            count = blocks[block] - 1
            if count:
                blocks[block] = count
            else:
                del blocks[block]

    def remove_store(self, seq: int) -> None:
        """A store left the window (commit)."""
        seqs = self._posted_seqs
        index = bisect.bisect_left(seqs, seq)
        if index < len(seqs) and seqs[index] == seq:
            self._uncover(self._records[index])
            del seqs[index]
            del self._records[index]

    def squash(self, from_seq: int) -> None:
        """Drop every store with seq >= *from_seq*."""
        cut = bisect.bisect_left(self._unposted, from_seq)
        del self._unposted[cut:]
        cut = bisect.bisect_left(self._posted_seqs, from_seq)
        for record in self._records[cut:]:
            self._uncover(record)
        del self._posted_seqs[cut:]
        del self._records[cut:]

    # -- load-side queries -----------------------------------------------------

    def all_older_posted(self, seq: int, cycle: int) -> bool:
        """True when every older store's address is visible at *cycle*."""
        if self._unposted and self._unposted[0] < seq:
            return False
        # Posted but not yet visible (scheduler latency) also blocks.
        # Visibility lags a post by at most a few cycles, so the bound
        # check answers almost every query without the scan.
        if self._max_visible <= cycle:
            return True
        for record in self._records:
            if record.seq >= seq:
                break
            if record.posted_cycle > cycle:
                return False
        return True

    def youngest_older_match(
        self, seq: int, addr: int, size: int, cycle: int
    ):
        """Youngest older *visible* posted store overlapping the access.

        Returns the store's window entry, or None.
        """
        blocks = self._blocks
        end = addr + size
        for block in range(addr >> 3, ((end - 1) >> 3) + 1):
            if block in blocks:
                break
        else:
            return None
        records = self._records
        for i in range(bisect.bisect_left(self._posted_seqs, seq) - 1,
                       -1, -1):
            record = records[i]
            if record.posted_cycle > cycle:
                continue
            if record.addr < end and addr < record.addr + record.size:
                return record.entry
        return None
