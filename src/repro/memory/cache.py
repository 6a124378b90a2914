"""Banked, lockup-free, set-associative cache with LRU replacement.

Timing model: an access first arbitrates for its bank (each bank services
one new access per cycle), then probes the tags. Hits complete after the
configured hit latency. Misses either merge into a pending fill (secondary
miss, via the MSHRs) or allocate a primary MSHR and request the block from
the next level; the access completes when the fill returns.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config.processor import CacheConfig
from repro.memory.mshr import MSHRFile

#: Signature of the next level's access function:
#: (block_address, start_cycle, is_write) -> completion cycle.
NextLevel = Callable[[int, int, bool], int]


class SetAssocCache:
    """One cache level. Use :meth:`access` for all traffic."""

    def __init__(self, config: CacheConfig, next_level: NextLevel) -> None:
        self.config = config
        self._next_level = next_level
        self._block_shift = config.block_bytes.bit_length() - 1
        self._bank_mask = config.banks - 1
        if config.banks & self._bank_mask:
            raise ValueError("bank count must be a power of two")
        # The bank is the low block bits and the set within the bank the
        # next ones, so one mask over both names a (bank, set) pair.
        sets = config.banks * config.sets_per_bank
        self._index_mask = sets - 1
        # Hot-path copies of immutable config values.
        self._hit_latency = config.hit_latency
        self._fill_delta = config.miss_latency - config.hit_latency
        self._assoc = config.assoc
        # tags[block & index_mask] = list of block tags in LRU order
        # (front = MRU), or None for a set never written: most sets of
        # a 4 MB L2 stay untouched in a short run, so creating the
        # lists up front would dominate construction.
        self._tags: List[Optional[List[int]]] = [None] * sets
        self._mshrs = MSHRFile(
            config.banks,
            config.mshr_primary_per_bank,
            config.mshr_secondary_per_primary,
        )
        # Bank is busy with a new access until this cycle (1 new/cycle).
        self._bank_free: List[int] = [0] * config.banks
        self.hits = 0
        self.misses = 0
        self.bank_conflicts = 0

    # -- geometry ---------------------------------------------------------

    def block_address(self, addr: int) -> int:
        return addr >> self._block_shift

    # -- access -----------------------------------------------------------

    def access(self, addr: int, cycle: int, write: bool = False) -> int:
        """Access *addr* starting no earlier than *cycle*.

        Returns the completion cycle (data available / write accepted)
        and counts the access in ``hits`` or ``misses``. The tag array
        is updated (allocate-on-miss for both reads and writes; LRU).
        """
        block = addr >> self._block_shift
        bank = block & self._bank_mask

        start = cycle
        bank_free = self._bank_free
        if bank_free[bank] > start:
            self.bank_conflicts += 1
            start = bank_free[bank]
        bank_free[bank] = start + 1

        tags = self._tags
        index = block & self._index_mask
        ways = tags[index]
        tag = block
        mshr_bank = self._mshrs.bank(bank)
        # MRU fast path first: locality makes ``ways[0]`` the common
        # case, and it needs neither the membership scan nor a reorder.
        if ways is None:
            hit = False
        elif ways[0] == tag:
            hit = True
        elif tag in ways:
            ways.insert(0, ways.pop(ways.index(tag)))
            hit = True
        else:
            hit = False
        if hit:
            # The tag is installed when the fill is *requested*; if
            # the fill is still in flight this access merges into it
            # (a secondary miss) rather than hitting instantly. Most
            # hits find an idle MSHR bank — skip the merge lookup then.
            if mshr_bank._entries:
                pending = mshr_bank.lookup(tag, start)
                if pending is not None:
                    self.misses += 1
                    return max(pending, start + 1)
            self.hits += 1
            return start + self._hit_latency

        self.misses += 1

        # Primary miss: request from the next level.
        fill_done = self._next_level(
            block << self._block_shift, start + self._hit_latency, write
        )
        fill_done += self._fill_delta
        ready = mshr_bank.allocate(tag, fill_done, start)
        # Install without the membership re-scan: the miss path has
        # just proven the tag absent, and ``_next_level`` cannot
        # re-enter this level's tag array.
        if ways is None:
            tags[index] = [tag]
        else:
            ways.insert(0, tag)
            if len(ways) > self._assoc:
                ways.pop()
        return max(ready, start + 1)

    def touch(self, addr: int) -> None:
        """Install the block holding *addr* with no timing side effects.

        Used by functional warm-up: the block becomes resident
        immediately, without occupying a bank slot or an MSHR. A block
        already resident keeps its LRU position, even when not MRU.
        """
        block = addr >> self._block_shift
        index = block & self._index_mask
        ways = self._tags[index]
        if ways is None:
            self._tags[index] = [block]
        elif block not in ways:
            ways.insert(0, block)
            if len(ways) > self._assoc:
                ways.pop()

    # -- introspection ------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """True if the block holding *addr* is resident (tests only)."""
        block = self.block_address(addr)
        ways = self._tags[block & self._index_mask]
        return ways is not None and block in ways

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def mshr_stalls(self) -> int:
        return self._mshrs.stalls

    @property
    def mshr_merges(self) -> int:
        return self._mshrs.merged

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bank_conflicts = 0
