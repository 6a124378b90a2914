"""Memory dependence prediction table (MDPT) with synonym indirection.

Section 3.6: "a 4K, 2-way set associative MDPT in which separate entries
are allocated for stores and loads. Dependences are represented using
synonyms, i.e., a level of indirection. No confidence mechanism is
associated with each MDPT entry; once an entry is allocated,
synchronization is always enforced. However, we flush the MDPT every one
million cycles to reduce the frequency of false dependences."

A miss-speculation between (load PC, store PC) allocates both sides with
a common *synonym*. At dispatch, a store whose PC hits marks itself the
producer of its synonym; a load whose PC hits waits on the closest older
in-window producer of the same synonym and may issue one cycle after that
store issues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class SynchronizationPrediction:
    """What the MDPT says about a dispatching load or store."""

    synonym: int


class _Side:
    """One set-associative side (loads or stores) mapping pc -> synonym."""

    def __init__(self, entries: int, assoc: int) -> None:
        if entries % assoc:
            raise ValueError("entries must divide by associativity")
        sets = entries // assoc
        if sets & (sets - 1):
            raise ValueError("set count must be a power of two")
        self._sets = sets
        self._assoc = assoc
        # Each set: list of [tag, synonym] in LRU order (front = MRU), or
        # None until the set is first written.
        self._table: List[Optional[List[List[int]]]] = [None] * sets

    def lookup(self, pc: int) -> Optional[int]:
        ways = self._table[(pc >> 2) & (self._sets - 1)]
        if ways is None:
            return None
        tag = pc >> 2
        for i, way in enumerate(ways):
            if way[0] == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                return way[1]
        return None

    def insert(self, pc: int, synonym: int) -> None:
        index = (pc >> 2) & (self._sets - 1)
        ways = self._table[index]
        tag = pc >> 2
        if ways is None:
            self._table[index] = [[tag, synonym]]
            return
        for i, way in enumerate(ways):
            if way[0] == tag:
                way[1] = synonym
                if i:
                    ways.insert(0, ways.pop(i))
                return
        ways.insert(0, [tag, synonym])
        if len(ways) > self._assoc:
            ways.pop()

    def flush(self) -> None:
        self._table = [None] * self._sets

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._table if ways is not None)


class MDPT:
    """The speculation/synchronization predictor (load and store sides)."""

    def __init__(self, entries: int = 4096, assoc: int = 2) -> None:
        if entries % 2:
            raise ValueError("entries must split evenly into two sides")
        # Separate entries for loads and stores: split the capacity.
        self._loads = _Side(entries // 2, assoc)
        self._stores = _Side(entries // 2, assoc)
        self._next_synonym = 1
        self.allocated_pairs = 0

    def record_violation(self, load_pc: int, store_pc: int) -> int:
        """Allocate (or re-link) entries for a miss-speculated pair.

        If either side already has a synonym, reuse it so several static
        stores can feed one load (and vice versa); otherwise mint a fresh
        synonym. Returns the synonym used.
        """
        existing = self._loads.lookup(load_pc)
        if existing is None:
            existing = self._stores.lookup(store_pc)
        if existing is None:
            existing = self._next_synonym
            self._next_synonym += 1
            self.allocated_pairs += 1
        self._loads.insert(load_pc, existing)
        self._stores.insert(store_pc, existing)
        return existing

    def predict_load(self, pc: int) -> Optional[SynchronizationPrediction]:
        """Synchronization prediction for a dispatching load, if any."""
        synonym = self._loads.lookup(pc)
        if synonym is None:
            return None
        return SynchronizationPrediction(synonym)

    def predict_store(self, pc: int) -> Optional[SynchronizationPrediction]:
        """Synchronization prediction for a dispatching store, if any."""
        synonym = self._stores.lookup(pc)
        if synonym is None:
            return None
        return SynchronizationPrediction(synonym)

    def flush(self) -> None:
        """Periodic flush (reduces false synchronization)."""
        self._loads.flush()
        self._stores.flush()

    def occupancy(self) -> int:
        return self._loads.occupancy() + self._stores.occupancy()
