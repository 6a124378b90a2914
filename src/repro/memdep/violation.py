"""Memory dependence violation detection.

Section 3.3: "All speculative load accesses are recorded in a separate
structure, so that preceding stores can detect whether a true memory
dependence was violated by a speculatively issued load."

Implementation note: a hardware detector compares addresses
associatively. Because the simulator is trace-driven it already knows
each load's producing store (the youngest older conflicting one), so the
detector indexes speculative loads *by that store* — an exact-output
shortcut for the associative search: a load read prematurely if and only
if it read at or before the cycle its producing store wrote (any older
conflicting store's write is, by youngest-ness, no later a correct value
than the producing store's).
"""

from __future__ import annotations

from typing import Dict, List


class ViolationDetector:
    """Speculative-load table, indexed by producing store seq."""

    def __init__(self) -> None:
        self._by_store: Dict[int, List] = {}
        self.registered = 0

    def register_load(self, load_entry, store_seq: int) -> None:
        """Record a dependent load entering the window."""
        self._by_store.setdefault(store_seq, []).append(load_entry)
        self.registered += 1

    def loads_violating(self, store_seq: int, write_cycle: int) -> List:
        """Dependent loads that read memory at or before *write_cycle*.

        Loads that have not accessed memory yet, were squashed, read
        after the store's write, or took their value from this very
        store through the store buffer are not violations.
        """
        violators = []
        for load in self._by_store.get(store_seq, ()):
            if load.squashed:
                continue
            if load.mem_issue_cycle is None:
                continue
            if load.mem_issue_cycle <= write_cycle and (
                load.forwarded_from != store_seq
            ):
                violators.append(load)
        return violators

    def dependent_loads(self, store_seq: int) -> List:
        """All live dependent loads registered against *store_seq*."""
        return [
            load for load in self._by_store.get(store_seq, ())
            if not load.squashed
        ]

    def squash(self, from_seq: int) -> None:
        """Drop records of loads with seq >= *from_seq*."""
        for store_seq, loads in list(self._by_store.items()):
            kept = [ld for ld in loads if ld.seq < from_seq]
            if kept:
                self._by_store[store_seq] = kept
            else:
                del self._by_store[store_seq]

    def retire_store(self, store_seq: int) -> None:
        """A store committed; its record is no longer needed."""
        self._by_store.pop(store_seq, None)
