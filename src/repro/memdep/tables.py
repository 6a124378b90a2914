"""PC-indexed set-associative predictor table with saturating counters.

Section 3.5: "In both memory dependence speculation schemes we used a 4K,
2-way set associative memory dependence predictor. ... Both predictors use
2-bit saturating counter-based confidence automatons. It takes 3
miss-speculations on a specific load or store before the existence of a
dependence is predicted. All counters are reset every 1 million cycles to
allow adapting back."
"""

from __future__ import annotations

from typing import List, Optional


class TwoBitPredictorTable:
    """Set-associative table of (pc tag -> 2-bit counter), LRU replaced."""

    def __init__(
        self,
        entries: int = 4096,
        assoc: int = 2,
        threshold: int = 3,
        counter_max: int = 3,
    ) -> None:
        if entries % assoc:
            raise ValueError("entries must divide by associativity")
        sets = entries // assoc
        if sets & (sets - 1):
            raise ValueError("set count must be a power of two")
        if not 0 < threshold <= counter_max:
            raise ValueError("threshold must be within counter range")
        self._sets = sets
        self._assoc = assoc
        self._threshold = threshold
        self._counter_max = counter_max
        # Each set: list of [tag, counter] in LRU order (front = MRU), or
        # None until the set is first written.
        self._table: List[Optional[List[List[int]]]] = [None] * sets
        self.allocations = 0
        self.evictions = 0

    def _set_of(self, pc: int) -> int:
        return (pc >> 2) & (self._sets - 1)

    def _find(self, pc: int) -> Optional[List[int]]:
        ways = self._table[self._set_of(pc)]
        if ways is None:
            return None
        tag = pc >> 2
        for i, way in enumerate(ways):
            if way[0] == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                return way
        return None

    def predicts_dependence(self, pc: int) -> bool:
        """True if *pc*'s counter has reached the confidence threshold."""
        way = self._find(pc)
        return way is not None and way[1] >= self._threshold

    def record_misspeculation(self, pc: int) -> None:
        """Strengthen the dependence prediction for *pc*."""
        way = self._find(pc)
        if way is None:
            self.allocations += 1
            index = self._set_of(pc)
            ways = self._table[index]
            if ways is None:
                self._table[index] = [[pc >> 2, 1]]
                return
            ways.insert(0, [pc >> 2, 1])
            if len(ways) > self._assoc:
                ways.pop()
                self.evictions += 1
        elif way[1] < self._counter_max:
            way[1] += 1

    def record_good_speculation(self, pc: int) -> None:
        """Weaken the prediction for *pc* (not used by the paper's
        configuration, which adapts back only via periodic resets, but
        exposed for ablations)."""
        way = self._find(pc)
        if way is not None and way[1] > 0:
            way[1] -= 1

    def flush(self) -> None:
        """Reset every counter (the paper's periodic adaptation)."""
        self._table = [None] * self._sets

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._table if ways is not None)
