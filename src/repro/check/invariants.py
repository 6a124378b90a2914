"""Per-cycle microarchitectural invariant checker.

An observer sink asserting structural invariants the timing model
must never break:

* **age order** — the window holds consecutive seqs (``Window.get``
  finds an entry by its offset from the head); the store buffer, the
  unexecuted-store trackers and the address scheduler's
  posted/unposted lists are FIFO in program order;
* **pooled address generation** — every live load and store-write
  pool entry has generated its address by the next cycle (the memory
  scan, which runs before this cycle's address generations, relies on
  it);
* **structure consistency** — the store buffer's parallel seq index
  matches its entries and respects capacity; the address scheduler's
  posted records match their seq index; a buffered store younger than
  the last commit must still live in the window (a squash that forgot
  to flush the store buffer leaves "zombie" stores behind);
* **policy-gate soundness** — at the moment a load issues to memory,
  the active policy's gate must genuinely be open: under NO every
  older store has executed (NAS) or posted its address with no
  unwritten overlapping match (AS); under SEL only unpredicted loads
  bypass older stores; under STORE no older barrier store is pending;
  under SYNC/SSET the synonym producer has issued; under ORACLE the
  true producing store (recomputed here from the trace, not trusted
  from the processor) has issued;
* **squash soundness** — NO and ORACLE never squash, and a violation
  squash always names a load younger than the store.

The gate expectation is derived from the *configuration*, not from the
processor's resolved ``_gate_kind``, so a corrupted gate cannot vouch
for itself. Likewise the AS address-match check scans the scheduler's
posted records itself, without the scheduler's 8-byte block filter, so
it checks that filter as well.
"""

from __future__ import annotations

import bisect
import weakref
from typing import Optional

from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.observe.bus import ObserverSink
from repro.check.report import CheckReport
from repro.trace.dependences import compute_true_dependences
from repro.trace.events import Trace

_NEVER_SQUASH = (SpeculationPolicy.NO, SpeculationPolicy.ORACLE)
_SYNC_POLICIES = (SpeculationPolicy.SYNC, SpeculationPolicy.STORE_SETS)


def _is_sorted_strict(seqs) -> bool:
    return all(a < b for a, b in zip(seqs, seqs[1:]))


def _as_match_blocked(sched, entry, cycle: int) -> bool:
    """Does the youngest older store visible to *entry* at *cycle* and
    overlapping its access still have unwritten data?

    The reference for ``AddressScheduler.youngest_older_match``: a
    plain scan of the posted records, with no block filter.
    """
    inst = entry.inst
    addr = inst.addr
    end = addr + inst.size
    records = sched._records
    start = bisect.bisect_left(sched._posted_seqs, entry.seq) - 1
    for index in range(start, -1, -1):
        record = records[index]
        if record.posted_cycle > cycle:
            continue
        if record.addr < end and addr < record.addr + record.size:
            write = record.entry.write_cycle
            return write is None or write > cycle
    return False


class InvariantChecker(ObserverSink):
    """Asserts structural and policy invariants on the live machine."""

    summary_key = "invariants"

    def __init__(
        self,
        trace: Trace,
        report: CheckReport,
        stride: int = 1,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.trace = trace
        self.report = report
        self.stride = stride
        #: Independent recomputation of the true dependence map — used
        #: for the ORACLE gate check instead of ``entry.dep_store_seq``.
        self._deps = compute_true_dependences(trace)
        self._processor = None
        self._as_mode = False
        self._policy: Optional[SpeculationPolicy] = None
        self._last_committed = -1
        self._tick = 0
        self.cycles_checked = 0
        self.issues_checked = 0

    # -- wiring ------------------------------------------------------------

    def on_segment(self, processor) -> None:
        # Weak: the processor's bus holds this checker, so a strong
        # reference would leave the whole machine to the collector.
        self._processor = weakref.ref(processor)
        memdep = processor.config.memdep
        self._as_mode = memdep.scheduling is SchedulingModel.AS
        self._policy = memdep.policy
        self._last_committed = processor.cursor.position - 1

    def raw_commit(self, entry, cycle: int) -> None:
        self._last_committed = entry.seq

    # -- squash soundness --------------------------------------------------

    def raw_squash(self, load, store, cycle, squashed, resume) -> None:
        if self._policy in _NEVER_SQUASH:
            self.report.add(
                "policy-squash", "invariants",
                f"policy {self._policy.value} must never miss-speculate "
                f"but squashed load {load.seq} on store {store.seq}",
                cycle=cycle, seq=load.seq,
            )
        if load.seq <= store.seq:
            self.report.add(
                "squash-order", "invariants",
                f"violation squash names load {load.seq} not younger "
                f"than store {store.seq}",
                cycle=cycle, seq=load.seq,
            )

    def raw_replay(self, load, cycle, reexecuted) -> None:
        if self._policy in _NEVER_SQUASH:
            self.report.add(
                "policy-squash", "invariants",
                f"policy {self._policy.value} must never miss-speculate "
                f"but replayed load {load.seq}",
                cycle=cycle, seq=load.seq,
            )

    # -- policy-gate soundness --------------------------------------------

    def raw_mem_issue(self, entry, cycle, forwarded) -> None:
        if not entry.is_load:
            return
        if self._processor is None:
            return
        processor = self._processor()
        self.issues_checked += 1
        report = self.report
        seq = entry.seq
        agen = entry.agen_done
        if agen is None or agen > cycle:
            report.add(
                "gate-soundness", "invariants",
                f"load {seq} issued to memory at cycle {cycle} before "
                f"its address generation ({agen})",
                cycle=cycle, seq=seq,
            )
            return
        if self._as_mode:
            self._check_gate_as(processor, entry, cycle)
            return
        policy = self._policy
        if policy is SpeculationPolicy.NO:
            oldest = processor.unexec_stores.oldest()
            if oldest is not None and oldest < seq:
                report.add(
                    "gate-soundness", "invariants",
                    f"NO-speculation load {seq} issued while older "
                    f"store {oldest} has not executed",
                    cycle=cycle, seq=seq,
                )
        elif policy is SpeculationPolicy.SELECTIVE:
            if entry.predicted_dep:
                oldest = processor.unexec_stores.oldest()
                if oldest is not None and oldest < seq:
                    report.add(
                        "gate-soundness", "invariants",
                        f"SEL-gated load {seq} (predicted dependent) "
                        f"issued while older store {oldest} is "
                        f"unexecuted",
                        cycle=cycle, seq=seq,
                    )
        elif policy is SpeculationPolicy.STORE_BARRIER:
            oldest = processor.barrier_stores.oldest()
            if oldest is not None and oldest < seq:
                report.add(
                    "gate-soundness", "invariants",
                    f"STORE-barrier load {seq} issued while older "
                    f"barrier store {oldest} is unexecuted",
                    cycle=cycle, seq=seq,
                )
        elif policy in _SYNC_POLICIES:
            wait = entry.sync_wait_store
            if wait is not None and not (wait.squashed or wait.executed):
                issued = wait.issue_cycle
                if issued is None or cycle < issued + 1:
                    report.add(
                        "gate-soundness", "invariants",
                        f"synchronized load {seq} issued at {cycle} but "
                        f"its synonym store {wait.seq} issued at "
                        f"{issued}",
                        cycle=cycle, seq=seq,
                    )
        elif policy is SpeculationPolicy.ORACLE:
            dep_seq = self._deps.get(seq)
            if dep_seq is not None:
                dep = processor.window.get(dep_seq)
                if dep is not None and not dep.executed:
                    issued = dep.issue_cycle
                    if issued is None or cycle < issued + 1:
                        report.add(
                            "gate-soundness", "invariants",
                            f"ORACLE load {seq} issued at {cycle} ahead "
                            f"of its true producing store {dep_seq} "
                            f"(issued {issued})",
                            cycle=cycle, seq=seq,
                        )

    def _check_gate_as(self, processor, entry, cycle: int) -> None:
        report = self.report
        sched = processor.addr_sched
        seq = entry.seq
        visible_from = entry.agen_done + sched.latency
        if cycle < visible_from:
            report.add(
                "gate-soundness", "invariants",
                f"AS load {seq} issued at {cycle} before scheduler "
                f"visibility at {visible_from}",
                cycle=cycle, seq=seq,
            )
        if self._policy is SpeculationPolicy.NO and (
            not sched.all_older_posted(seq, cycle)
        ):
            report.add(
                "gate-soundness", "invariants",
                f"AS/NO load {seq} issued at {cycle} with older store "
                f"addresses still unposted",
                cycle=cycle, seq=seq,
            )
        # A known (visible) overlapping older store whose data has not
        # been written yet must hold the load — every AS policy waits
        # for a *known* true dependence.
        if _as_match_blocked(sched, entry, cycle):
            report.add(
                "gate-soundness", "invariants",
                f"AS load {seq} issued at {cycle} despite a visible "
                f"older overlapping store with unwritten data",
                cycle=cycle, seq=seq,
            )

    # -- per-cycle structure scans ----------------------------------------

    def on_cycle(self, processor) -> None:
        self._tick += 1
        if self._tick % self.stride:
            return
        self.cycles_checked += 1
        cycle = processor.cycle
        report = self.report

        # Window: consecutive seqs, so lookup by position is exact.
        prev = None
        for entry in processor.window._entries:
            if prev is not None and entry.seq != prev + 1:
                report.add(
                    "window-age-order", "invariants",
                    f"window holds seq {entry.seq} after {prev} "
                    f"(seqs must be consecutive)",
                    cycle=cycle, seq=entry.seq,
                )
                break
            prev = entry.seq

        # Memory pools: every live entry's address is generated by the
        # next cycle. The item lists are read in place, because
        # ``live_entries()`` compacts a pool.
        for pool in (processor.load_pool, processor.store_write_pool):
            for _, _, entry in pool._items:
                if not entry.in_mem_pool or entry.squashed:
                    continue
                agen = entry.agen_done
                if agen is None or agen > cycle + 1:
                    report.add(
                        "mem-pool-agen", "invariants",
                        f"{pool.name} holds seq {entry.seq} with address "
                        f"generation at {agen} (cycle {cycle})",
                        cycle=cycle, seq=entry.seq,
                    )

        # Store buffer: FIFO age order, capacity, parallel index,
        # and no zombie entries surviving a squash.
        buffer = processor.store_buffer
        seqs = buffer._seqs
        if len(buffer._entries) > buffer.capacity:
            report.add(
                "store-buffer-capacity", "invariants",
                f"store buffer holds {len(buffer._entries)} entries; "
                f"capacity is {buffer.capacity}",
                cycle=cycle,
            )
        if not _is_sorted_strict(seqs):
            report.add(
                "store-buffer-age-order", "invariants",
                f"store buffer seqs not in FIFO age order: {seqs}",
                cycle=cycle,
            )
        if seqs != [e.seq for e in buffer._entries]:
            report.add(
                "store-buffer-index", "invariants",
                "store buffer seq index diverged from its entries",
                cycle=cycle,
            )
        window_get = processor.window.get
        for stored in buffer._entries:
            if stored.seq > self._last_committed and (
                window_get(stored.seq) is None
            ):
                report.add(
                    "store-buffer-zombie", "invariants",
                    f"buffered store {stored.seq} is younger than the "
                    f"last commit ({self._last_committed}) but no "
                    f"longer in the window (squash left it behind)",
                    cycle=cycle, seq=stored.seq,
                )

        # Unexecuted-store trackers: sorted, members live and pending.
        for name, tracker in (
            ("unexec-stores", processor.unexec_stores),
            ("barrier-stores", processor.barrier_stores),
        ):
            tracked = tracker._seqs
            if not _is_sorted_strict(tracked):
                report.add(
                    "tracker-age-order", "invariants",
                    f"{name} tracker out of order: {tracked}",
                    cycle=cycle,
                )
            for seq in tracked:
                tracked_entry = window_get(seq)
                if tracked_entry is None:
                    report.add(
                        "tracker-membership", "invariants",
                        f"{name} tracks store {seq} which is not in "
                        f"the window",
                        cycle=cycle, seq=seq,
                    )
                elif not tracked_entry.is_store:
                    report.add(
                        "tracker-membership", "invariants",
                        f"{name} tracks seq {seq} which is not a store",
                        cycle=cycle, seq=seq,
                    )

        # Address scheduler (AS machines): sorted and consistent.
        sched = processor.addr_sched
        if sched is not None:
            if not _is_sorted_strict(sched._unposted):
                report.add(
                    "addr-sched-order", "invariants",
                    f"unposted store seqs out of order: "
                    f"{sched._unposted}",
                    cycle=cycle,
                )
            posted = sched._posted_seqs
            if not _is_sorted_strict(posted):
                report.add(
                    "addr-sched-order", "invariants",
                    f"posted store seqs out of order: {posted}",
                    cycle=cycle,
                )
            if posted != [r.seq for r in sched._records]:
                report.add(
                    "addr-sched-index", "invariants",
                    "posted seq index diverged from its records",
                    cycle=cycle,
                )

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "cycles_checked": self.cycles_checked,
            "issues_checked": self.issues_checked,
            "stride": self.stride,
        }
