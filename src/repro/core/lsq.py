"""Load/store queue helpers: unexecuted-store tracking and mem pools.

Several speculation policies gate loads on properties of *older stores
that have not yet executed*: NAS/NO and NAS/SEL wait for all of them,
NAS/STORE waits for predicted (barrier) ones. Dispatch is in program
order and squash truncates from the young end, so a sorted list with
binary-search removal gives O(log n) operations.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from repro.core.window import Entry


class UnexecutedStoreTracker:
    """Sorted multiset of in-window store seqs that have not executed."""

    def __init__(self) -> None:
        self._seqs: List[int] = []

    def on_dispatch(self, seq: int) -> None:
        if self._seqs and seq <= self._seqs[-1]:
            raise ValueError("stores must dispatch in program order")
        self._seqs.append(seq)

    def on_execute(self, seq: int) -> None:
        index = bisect.bisect_left(self._seqs, seq)
        if index < len(self._seqs) and self._seqs[index] == seq:
            self._seqs.pop(index)

    def squash(self, from_seq: int) -> None:
        cut = bisect.bisect_left(self._seqs, from_seq)
        del self._seqs[cut:]

    def oldest(self) -> Optional[int]:
        return self._seqs[0] if self._seqs else None

    def __len__(self) -> int:
        return len(self._seqs)


class MemPool:
    """Seq-ordered pool of memory operations awaiting a port/gate.

    Iteration yields live entries oldest-first without removing them
    (gates may keep an old load blocked while younger ones proceed).
    Entries are kept in a seq-sorted list — the hot per-cycle scan in
    ``_issue_memory`` then needs no sort at all — with removal done
    lazily by flag and compacted on the next iteration. A monotonic
    push counter breaks ties when a squashed seq re-enters before the
    stale record is compacted away.
    """

    def __init__(self, name: str = "mem-pool", observer=None) -> None:
        self.name = name
        #: Optional observability bus (repro.observe): push depths feed
        #: the bus's high-water marks.
        self.observer = observer
        self._items: List = []  # (seq, push_serial, entry), seq-sorted
        self._serial = 0
        self._dead = 0
        #: Memoized ``live_entries`` result; most cycles nothing enters
        #: or leaves the pool, so the filtered list can be reused. Pool
        #: mutations clear it; squashes must call :meth:`invalidate`
        #: (squashing only flags the entry, the pool is not told).
        self._live: Optional[List[Entry]] = None

    def push(self, entry: Entry) -> None:
        if entry.in_mem_pool or entry.squashed:
            return
        entry.in_mem_pool = True
        self._live = None
        self._serial += 1
        item = (entry.seq, self._serial, entry)
        items = self._items
        if not items or entry.seq > items[-1][0]:
            items.append(item)
        else:
            bisect.insort(items, item)
        if self.observer is not None:
            self.observer.note_depth(
                self.name, len(items) - self._dead
            )

    def __len__(self) -> int:
        return len(self._items) - self._dead

    def __bool__(self) -> bool:
        return len(self._items) > self._dead

    def live_entries(self) -> List[Entry]:
        """Live entries oldest-first (also prunes squashed ones)."""
        live = self._live
        if live is not None:
            return live
        items = self._items
        if not items:
            self._live = live = []
            return live
        live = [
            e for _, _, e in items if e.in_mem_pool and not e.squashed
        ]
        if len(live) != len(items):
            self._items = [(e.seq, 0, e) for e in live]
            self._dead = 0
        self._live = live
        return live

    def remove(self, entry: Entry) -> None:
        """Mark *entry* as no longer pooled (lazily removed)."""
        if entry.in_mem_pool:
            entry.in_mem_pool = False
            self._dead += 1
            self._live = None

    def invalidate(self) -> None:
        """Drop the memoized live list (call after a squash)."""
        self._live = None


class SynonymTracker:
    """In-window producer stores per synonym (NAS/SYNC bookkeeping)."""

    def __init__(self) -> None:
        self._producers: Dict[int, List[Entry]] = {}

    def add_producer(self, synonym: int, entry: Entry) -> None:
        self._producers.setdefault(synonym, []).append(entry)

    def closest_older_producer(
        self, synonym: int, seq: int
    ) -> Optional[Entry]:
        """Youngest live producer of *synonym* older than *seq*."""
        best: Optional[Entry] = None
        for entry in self._producers.get(synonym, ()):
            if entry.squashed or entry.seq >= seq:
                continue
            if best is None or entry.seq > best.seq:
                best = entry
        return best

    def retire(self, synonym: Optional[int], entry: Entry) -> None:
        if synonym is None:
            return
        producers = self._producers.get(synonym)
        if producers and entry in producers:
            producers.remove(entry)
            if not producers:
                del self._producers[synonym]

    def squash(self, from_seq: int) -> None:
        for synonym in list(self._producers):
            kept = [
                e for e in self._producers[synonym] if e.seq < from_seq
            ]
            if kept:
                self._producers[synonym] = kept
            else:
                del self._producers[synonym]
