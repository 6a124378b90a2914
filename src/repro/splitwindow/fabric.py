"""Cross-window sync fabric and banked memory for the split window.

With the ideal fabric a posted store address becomes visible to every
unit ``1 + addr_scheduler_latency`` cycles after posting, with no
transport cost and no bandwidth limit. :class:`SyncFabric` turns
posting into messages over a link with

* **link latency** — extra cycles for the message to cross the fabric,
* **bandwidth** — at most ``sync_bandwidth`` messages delivered per
  cycle (0 = unbounded); excess messages queue FIFO behind earlier
  ones, each taking the earliest cycle with a free delivery slot.

With ``link_latency == 0`` and unbounded bandwidth the fabric is
*ideal*: posting is synchronous and no message is ever sent. Any finite
bandwidth implies a real fabric, so sent messages always take at least
one cycle.

:class:`BankedMemory` adds per-bank contention in front of the magic
memory hierarchy: loads hash to ``mem_banks`` interleaved banks (32-byte
interleave, matching the L1 block), each accepting ``bank_ports``
accesses per cycle; a conflicting access starts at the earliest cycle
with a free bank port.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Tuple


class SyncFabric:
    """Latency/bandwidth model and delivery heap for posted addresses.

    Every message gets a send order. The heap holds ``(visible cycle,
    send order, store seq)``, so messages due in the same cycle are
    delivered in the order they were sent. A squash cancels messages by
    dropping their send order from the live set; the heap entry stays
    behind and is skipped when popped, so a store that re-posts after
    the squash is never confused with its cancelled message.
    """

    def __init__(self, link_latency: int, bandwidth: int) -> None:
        self.link_latency = link_latency
        self.bandwidth = bandwidth  # 0 = unbounded
        #: ``(visible cycle, send order, store seq)`` of sent messages.
        self.heap: List[Tuple[int, int, int]] = []
        #: Live messages: send order -> (store seq, visible cycle).
        self._live: Dict[int, Tuple[int, int]] = {}
        #: Messages assigned to each delivery cycle (bandwidth > 0 only).
        self._slots: Dict[int, int] = {}
        self.posted = 0
        self.queued = 0  # messages delayed behind a full slot
        self.max_delay = 0  # worst queueing delay seen (beyond base)

    @property
    def evented(self) -> bool:
        """False for the ideal fabric, where posting is synchronous."""
        return self.link_latency > 0 or self.bandwidth > 0

    def send(self, seq: int, base: int) -> int:
        """Send store *seq*'s address, posted at *base*; return the
        cycle it becomes visible (the earliest with a free slot)."""
        ideal = base + self.link_latency
        visible = ideal
        if self.bandwidth > 0:
            slots = self._slots
            while slots.get(visible, 0) >= self.bandwidth:
                visible += 1
            slots[visible] = slots.get(visible, 0) + 1
            if visible > ideal:
                self.queued += 1
                self.max_delay = max(self.max_delay, visible - ideal)
        order = self.posted
        self.posted += 1
        self._live[order] = (seq, visible)
        heapq.heappush(self.heap, (visible, order, seq))
        return visible

    def due(self, cycle: int) -> Iterator[Tuple[int, int]]:
        """Pop live messages visible by *cycle*, yielding ``(store seq,
        visible cycle)`` in (visible cycle, send order) order.

        Pops lazily, so a squash run on a yielded message cancels the
        messages behind it.
        """
        heap, live = self.heap, self._live
        while heap and heap[0][0] <= cycle:
            _, order, seq = heapq.heappop(heap)
            message = live.pop(order, None)
            if message is not None:
                yield message

    def cancel_from(self, seq: int) -> None:
        """Squash recovery: cancel in-flight messages of stores >= *seq*.

        Cancelled messages release their bandwidth slots, so stores
        re-posted after re-execution contend only with live traffic.
        """
        live, slots = self._live, self._slots
        for order in [o for o, (s, _) in live.items() if s >= seq]:
            _, visible = live.pop(order)
            if self.bandwidth > 0:
                remaining = slots[visible] - 1
                if remaining > 0:
                    slots[visible] = remaining
                else:
                    del slots[visible]

    def stats(self) -> Dict[str, int]:
        return {
            "fabric_posted": self.posted,
            "fabric_queued": self.queued,
            "fabric_max_queue_delay": self.max_delay,
        }


class BankedMemory:
    """Per-bank contention in front of the magic memory hierarchy.

    ``banks == 0`` disables contention entirely (plain passthrough to
    ``hierarchy.load``). Otherwise a load to address ``a`` contends for
    bank ``(a >> 5) % banks`` (32-byte interleave); each bank accepts
    ``ports`` accesses per cycle and a conflicting access is pushed to
    the earliest later cycle with a free port.
    """

    def __init__(self, hierarchy, banks: int, ports: int) -> None:
        self.hierarchy = hierarchy
        self.banks = banks
        self.ports = ports
        self._used: List[Dict[int, int]] = [
            {} for _ in range(max(banks, 0))
        ]
        self.accesses = 0
        self.conflicts = 0
        self.conflict_cycles = 0

    def load(self, addr: int, cycle: int) -> int:
        """Completion cycle of a load starting (at earliest) at *cycle*."""
        if self.banks <= 0:
            return self.hierarchy.load(addr, cycle)
        bank = (addr >> 5) % self.banks
        used = self._used[bank]
        start = cycle
        while used.get(start, 0) >= self.ports:
            start += 1
        used[start] = used.get(start, 0) + 1
        self.accesses += 1
        if start > cycle:
            self.conflicts += 1
            self.conflict_cycles += start - cycle
        return self.hierarchy.load(addr, start)

    def stats(self) -> Dict[str, int]:
        return {
            "bank_accesses": self.accesses,
            "bank_conflicts": self.conflicts,
            "bank_conflict_cycles": self.conflict_cycles,
        }
