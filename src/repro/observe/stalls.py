"""Commit-slot stall attribution, occupancy and utilisation histograms.

Every simulated cycle offers ``issue_width`` commit slots. Committed
instructions fill some; :class:`StallAccountant` charges every leftover
slot to exactly **one** cause, so per run

    ``sum(causes.values()) + commit_slots == issue_width × cycles``

holds exactly (asserted by ``tests/test_observe_stalls.py``). The blame
rule: find the **oldest unfinished** window entry at the end of the
cycle and classify *why it is not finished*. (The window head itself is
the oldest *uncommitted* entry — by the time an instruction reaches the
head every older store has committed, so head-blame can never see a
dependence gate. The oldest *unfinished* entry can sit mid-window
behind unexecuted older stores, which is exactly the state the paper's
policies differ on.)

Causes (see docs/OBSERVABILITY.md for the full decision tree):

``fetch``            window empty; the front end is the bottleneck.
``squash-recovery``  window empty while refilling after a violation
                     squash (within ``resume + front_end_depth``).
``reg-dep``          waiting on register operands (or a NAS store's
                     data operand).
``memdep-wait``      a load's address is ready but the policy gate
                     holds it behind older stores *not known* to
                     conflict (NO/SEL gates; AS/NO's all-posted rule).
``store-barrier``    held behind an older unexecuted barrier store
                     (the STORE policy's gate).
``sync-wait``        waiting on a *known or predicted* producer store:
                     MDPT/store-set synchronization, the oracle's true
                     dependences, and AS address-match waits.
``cache-miss``       a load's memory access is in flight.
``exec``             issued and executing (functional-unit or
                     address-generation latency, store drain, or the
                     AS scheduler's pipeline latency).
``window-full``      structurally stalled: operands ready but no issue
                     slot, functional unit or memory port this cycle —
                     or the whole window is finished and commit
                     bandwidth is the limit.

The simulator's clock **fast-forwards** over idle stretches; skipped
cycles are charged (full-width) to the cause computed at the end of the
last simulated cycle, which is precisely the state the machine idled
in.

Occupancy histograms sample the window, scheduler pools, store buffer
and (sub-sampled — it is O(sets) to read) the MDPT every observed
cycle; summaries report mean/max plus percentiles via the existing
:func:`repro.stats.summary.percentile`.

:class:`UtilisationSampler` answers the capacity questions behind the
paper's configuration choices — how full the window runs, how much of
the issue bandwidth a policy uses, whether the memory ports saturate —
with one histogram each of window occupancy, instructions issued and
memory ports used per simulated cycle.
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional

from repro.config.processor import SpeculationPolicy
from repro.core.processor import (
    _GATE_ALL_STORES,
    _GATE_AS,
    _GATE_BARRIER,
    _GATE_OPEN,
    _GATE_ORACLE,
    _GATE_PREDICTED,
    _GATE_SYNC,
)
from repro.observe.bus import RawObserverSink
from repro.stats.summary import percentile

CAUSE_FETCH = "fetch"
CAUSE_SQUASH_RECOVERY = "squash-recovery"
CAUSE_REG_DEP = "reg-dep"
CAUSE_MEMDEP_WAIT = "memdep-wait"
CAUSE_STORE_BARRIER = "store-barrier"
CAUSE_SYNC_WAIT = "sync-wait"
CAUSE_CACHE_MISS = "cache-miss"
CAUSE_EXEC = "exec"
CAUSE_WINDOW_FULL = "window-full"

#: Every stall cause, in reporting order.
STALL_CAUSES = (
    CAUSE_MEMDEP_WAIT,
    CAUSE_STORE_BARRIER,
    CAUSE_SYNC_WAIT,
    CAUSE_SQUASH_RECOVERY,
    CAUSE_CACHE_MISS,
    CAUSE_REG_DEP,
    CAUSE_EXEC,
    CAUSE_WINDOW_FULL,
    CAUSE_FETCH,
)

#: MDPT occupancy is O(sets) to read; sample it every this many cycles.
_MDPT_SAMPLE_STRIDE = 256

#: Causes attributable to the memory-dependence policy gate; these take
#: precedence over dataflow/execution causes (see ``_classify``).
_GATE_CAUSES = frozenset(
    (CAUSE_MEMDEP_WAIT, CAUSE_STORE_BARRIER, CAUSE_SYNC_WAIT)
)


class OccupancyHistogram:
    """Integer-valued per-cycle samples as a value -> count histogram."""

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.samples = 0
        self.total = 0
        self.max = 0

    def add(self, value: int) -> None:
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1
        self.samples += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0

    def _expand(self):
        values = []
        for value, count in sorted(self.counts.items()):
            values.extend([value] * count)
        return values

    def summary(self) -> dict:
        if not self.samples:
            return {
                "samples": 0, "mean": 0.0, "max": 0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0,
            }
        values = self._expand()
        return {
            "samples": self.samples,
            "mean": round(self.mean, 3),
            "max": self.max,
            "p50": round(percentile(values, 0.50), 3),
            "p90": round(percentile(values, 0.90), 3),
            "p99": round(percentile(values, 0.99), 3),
        }


class StallAccountant:
    """Charges every non-committing commit slot to one cause."""

    wants_events = False
    wants_cycles = True
    summary_key = "stalls"

    def __init__(self, config) -> None:
        self.width = config.window.issue_width
        self._front_end_depth = config.fetch.front_end_depth
        self.causes: Dict[str, int] = {c: 0 for c in STALL_CAUSES}
        self.commit_slots = 0
        self.cycles_observed = 0
        #: Cycles the simulator's clock fast-forwarded over (idle
        #: stretches / the vector backend's event-horizon elision);
        #: their slots are charged full-width to the pending cause.
        self.skipped_cycles = 0
        self.occupancy: Dict[str, OccupancyHistogram] = {
            "window": OccupancyHistogram(),
            "scheduler": OccupancyHistogram(),
            "store_buffer": OccupancyHistogram(),
            "mdpt": OccupancyHistogram(),
        }
        self._last_cycle = 0
        self._pending_cause = CAUSE_FETCH
        self._committed_seen = 0
        self._squash_until = -1
        self._mdpt_tick = 0

    # -- bus callbacks ---------------------------------------------------

    def on_squash(self, resume_cycle: int) -> None:
        self._squash_until = resume_cycle + self._front_end_depth

    def on_segment(self, processor) -> None:
        """A timing segment starts: re-anchor the per-cycle deltas.

        Functional (warm-up) intervals advance ``processor.cycle``
        without simulating; they are not charged.
        """
        self._last_cycle = processor.cycle
        self._pending_cause = CAUSE_FETCH
        self._committed_seen = 0

    def on_cycle(self, processor) -> None:
        cycle = processor.cycle
        width = self.width
        gap = cycle - self._last_cycle - 1
        if gap > 0:
            # The clock fast-forwarded: the machine idled `gap` cycles
            # in the state classified at the end of the last one.
            self.causes[self._pending_cause] += gap * width
            self.cycles_observed += gap
            self.skipped_cycles += gap
        self._last_cycle = cycle
        committed_total = processor.stats.committed
        committed = committed_total - self._committed_seen
        self._committed_seen = committed_total
        self.commit_slots += committed
        cause = self._classify(processor, cycle)
        leftover = width - committed
        if leftover > 0:
            self.causes[cause] += leftover
        self.cycles_observed += 1
        self._pending_cause = cause
        self._sample_occupancy(processor)

    # -- occupancy -------------------------------------------------------

    def _sample_occupancy(self, processor) -> None:
        occ = self.occupancy
        occ["window"].add(len(processor.window._entries))
        occ["scheduler"].add(
            len(processor.ready_pool)
            + len(processor.load_pool)
            + len(processor.store_write_pool)
        )
        occ["store_buffer"].add(len(processor.store_buffer))
        mdpt = processor.mdpt
        if mdpt is not None:
            self._mdpt_tick += 1
            if self._mdpt_tick >= _MDPT_SAMPLE_STRIDE:
                self._mdpt_tick = 0
                occ["mdpt"].add(mdpt.occupancy())

    # -- classification --------------------------------------------------

    def _classify(self, processor, cycle: int) -> str:
        entries = processor.window._entries
        if not entries:
            if cycle < self._squash_until:
                return CAUSE_SQUASH_RECOVERY
            return CAUSE_FETCH
        target = None
        for entry in entries:
            done = (
                entry.write_cycle if entry.is_store
                else entry.complete_cycle
            )
            if done is None or done > cycle:
                target = entry
                break
        if target is None:
            # Everything in flight already finished; the leftover slots
            # are pure commit-bandwidth backpressure.
            return CAUSE_WINDOW_FULL
        cause = self._classify_entry(processor, target, cycle)
        if cause in _GATE_CAUSES or processor._gate_kind == _GATE_OPEN:
            return cause
        # Gate precedence: a gate-blocked load is never the *oldest*
        # unfinished entry under NO/SEL/STORE — its blocking store is
        # older and also unfinished — so pure oldest-entry blame would
        # fold the policy's whole cost into exec/cache-miss (the gate's
        # damage is the *serialisation* of the misses behind it). When
        # the oldest entry's cause is not itself a gate wait, the
        # policy gate is charged if any load sits gate-blocked this
        # cycle (oldest such load wins).
        for entry in entries:
            if (
                not entry.is_load
                or not entry.in_mem_pool
                or entry.mem_issue_cycle is not None
                or entry.issue_cycle is None
            ):
                continue
            agen = entry.agen_done
            if agen is None or agen > cycle:
                continue
            gate = self._gate_cause(processor, entry, cycle)
            if gate is not None:
                return gate
        return cause

    def _classify_entry(self, processor, entry, cycle: int) -> str:
        if entry.is_load:
            if entry.mem_issue_cycle is not None:
                return CAUSE_CACHE_MISS
            if entry.issue_cycle is None:
                return self._classify_unissued(processor, entry, cycle)
            agen = entry.agen_done
            if agen is None or agen > cycle:
                return CAUSE_EXEC
            return self._classify_load_gate(processor, entry, cycle)
        if entry.is_store:
            if entry.write_cycle is not None:
                return CAUSE_EXEC  # drain to the store buffer in flight
            if entry.issue_cycle is None:
                return self._classify_unissued(processor, entry, cycle)
            # AS store: address posted; the write waits on its data.
            if entry.data_pending or entry.data_ready > cycle:
                return CAUSE_REG_DEP
            return CAUSE_WINDOW_FULL
        if entry.issue_cycle is None:
            return self._classify_unissued(processor, entry, cycle)
        return CAUSE_EXEC

    def _classify_unissued(self, processor, entry, cycle: int) -> str:
        if entry.addr_pending or entry.addr_ready > cycle:
            return CAUSE_REG_DEP
        if (
            entry.is_store
            and not processor.as_mode
            and (entry.data_pending or entry.data_ready > cycle)
        ):
            return CAUSE_REG_DEP
        if entry.is_store:
            # Store-set store-to-store ordering holds ready stores at
            # issue until the set's previous store has issued.
            wait = entry.sync_wait_store
            if (
                wait is not None
                and not wait.squashed
                and wait.issue_cycle is None
            ):
                return CAUSE_SYNC_WAIT
        return CAUSE_WINDOW_FULL

    def _classify_load_gate(self, processor, entry, cycle: int) -> str:
        """Why is a pooled load (address ready) not accessing memory?"""
        gate = self._gate_cause(processor, entry, cycle)
        if gate is not None:
            return gate
        if processor._gate_kind == _GATE_AS and (
            cycle < entry.agen_done + processor.addr_sched.latency
        ):
            return CAUSE_EXEC  # the scheduler's own pipeline latency
        # Gate open: the load just has not won a memory port yet.
        return CAUSE_WINDOW_FULL

    def _gate_cause(self, processor, entry, cycle: int) -> Optional[str]:
        """The policy-gate wait holding a pooled load, or None if the
        gate is open (or the hold is the AS scheduler's latency)."""
        kind = processor._gate_kind
        seq = entry.seq
        if kind == _GATE_ALL_STORES:
            oldest = processor.unexec_stores.oldest()
            if oldest is not None and oldest < seq:
                return CAUSE_MEMDEP_WAIT
        elif kind == _GATE_PREDICTED:
            oldest = processor.unexec_stores.oldest()
            if (
                entry.predicted_dep
                and oldest is not None
                and oldest < seq
            ):
                return CAUSE_MEMDEP_WAIT
        elif kind == _GATE_BARRIER:
            oldest = processor.barrier_stores.oldest()
            if oldest is not None and oldest < seq:
                return CAUSE_STORE_BARRIER
        elif kind == _GATE_SYNC:
            wait = entry.sync_wait_store
            if (
                wait is not None
                and not wait.squashed
                and not wait.executed
            ):
                issued = wait.issue_cycle
                # The gate opens one cycle after the producer issues
                # (store-buffer forwarding); before that it is a wait.
                if issued is None or cycle < issued + 1:
                    return CAUSE_SYNC_WAIT
        elif kind == _GATE_ORACLE:
            dep_seq = entry.dep_store_seq
            if dep_seq is not None:
                dep = processor.window.get(dep_seq)
                if dep is not None and not dep.executed:
                    issued = dep.issue_cycle
                    if issued is None or cycle < issued + 1:
                        # Perfect speculation still waits for *true*
                        # dependences — synchronization, not a memdep
                        # gate.
                        return CAUSE_SYNC_WAIT
        elif kind == _GATE_AS:
            sched = processor.addr_sched
            if cycle < entry.agen_done + sched.latency:
                return None  # scheduler pipeline latency, not the gate
            if processor.policy is SpeculationPolicy.NO and (
                not sched.all_older_posted(seq, cycle)
            ):
                return CAUSE_MEMDEP_WAIT
            if self._as_match_blocked(sched, entry, cycle):
                return CAUSE_SYNC_WAIT
        return None

    @staticmethod
    def _as_match_blocked(sched, entry, cycle: int) -> bool:
        """Read-only clone of ``AddressScheduler.youngest_older_match``
        plus the write-wait test — the real query bumps the scheduler's
        ``searches`` counter, which a passive observer must not do."""
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

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        stall_slots = sum(self.causes.values())
        return {
            "width": self.width,
            "cycles": self.cycles_observed,
            "slots": self.cycles_observed * self.width,
            "commit_slots": self.commit_slots,
            "stall_slots": stall_slots,
            "skipped_cycles": self.skipped_cycles,
            "causes": dict(self.causes),
            "occupancy": {
                name: hist.summary()
                for name, hist in self.occupancy.items()
            },
        }


class UtilisationSampler(RawObserverSink):
    """Per-cycle window occupancy, issue bandwidth and memory-port use.

    Each simulated cycle is sampled as the machine stood after issue and
    before that cycle's dispatches: the window length at ``on_cycle``
    minus the dispatches seen since the last one. Cycles the clock
    fast-forwards over are not sampled.
    """

    wants_cycles = True

    def __init__(self, config) -> None:
        self.issue_width = config.window.issue_width
        self.memory_ports = config.window.memory_ports
        self.window = OccupancyHistogram()
        self.issued = OccupancyHistogram()
        self.ports = OccupancyHistogram()
        self._dispatched = 0

    def raw_dispatch(self, entry, cycle: int) -> None:
        self._dispatched += 1

    def on_segment(self, processor) -> None:
        pass

    def on_squash(self, resume_cycle: int) -> None:
        pass

    def on_cycle(self, processor) -> None:
        funits = processor.funits
        self.window.add(len(processor.window) - self._dispatched)
        self._dispatched = 0
        self.issued.add(funits.issued_this_cycle)
        self.ports.add(funits.ports_used_this_cycle)

    def render(self) -> str:
        """Means of the three histograms plus the issue-width histogram."""
        issued = self.issued
        lines = [
            f"cycles sampled     {issued.samples:,}",
            f"window occupancy   mean {self.window.mean:.1f}, "
            f"max {self.window.max}",
            f"issue bandwidth    mean {issued.mean:.2f}/{self.issue_width}",
            f"memory ports       mean {self.ports.mean:.2f}/"
            f"{self.memory_ports}",
            "issue-width histogram:",
        ]
        for width, count in sorted(issued.counts.items()):
            share = count / max(1, issued.samples)
            bar = "#" * round(40 * share)
            lines.append(f"  {width:2d} |{bar:<40s}| {share:5.1%}")
        return "\n".join(lines)


def stall_summary(result) -> Optional[dict]:
    """The ``stalls`` section of an observed :class:`SimResult`, if any."""
    observe = result.extra.get("observe")
    if not isinstance(observe, dict):
        return None
    stalls = observe.get("stalls")
    return stalls if isinstance(stalls, dict) else None
