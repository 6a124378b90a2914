"""Branch target buffer: set-associative PC -> target cache (2K entries)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class BranchTargetBuffer:
    """LRU set-associative target buffer."""

    def __init__(self, entries: int = 2048, assoc: int = 2) -> None:
        if entries % assoc:
            raise ValueError("entries must be divisible by associativity")
        sets = entries // assoc
        if sets & (sets - 1):
            raise ValueError("set count must be a power of two")
        self._sets = sets
        self._assoc = assoc
        # Each set: list of (tag, target) in LRU order (front = MRU), or
        # None until the set is first written.
        self._table: List[Optional[List[Tuple[int, int]]]] = [None] * sets
        self.hits = 0
        self.misses = 0

    def _locate(self, pc: int) -> Tuple[int, int]:
        index = (pc >> 2) & (self._sets - 1)
        tag = pc >> 2
        return index, tag

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for *pc*, or None on a BTB miss."""
        index, tag = self._locate(pc)
        ways = self._table[index]
        if ways is not None:
            for i, (way_tag, target) in enumerate(ways):
                if way_tag == tag:
                    if i:
                        ways.insert(0, ways.pop(i))
                    self.hits += 1
                    return target
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the target for *pc* (LRU replacement)."""
        index, tag = self._locate(pc)
        ways = self._table[index]
        if ways is None:
            self._table[index] = [(tag, target)]
            return
        for i, (way_tag, _) in enumerate(ways):
            if way_tag == tag:
                ways.pop(i)
                break
        ways.insert(0, (tag, target))
        if len(ways) > self._assoc:
            ways.pop()

    def occupancy(self) -> Dict[int, int]:
        """Set index -> number of valid ways (diagnostics)."""
        return {
            i: len(ways) for i, ways in enumerate(self._table)
            if ways is not None
        }
