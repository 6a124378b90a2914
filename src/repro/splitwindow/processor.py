"""A distributed, split-window (Multiscalar-like) timing model.

Section 3.7 of the paper explains why an address-based scheduler that
eliminates miss-speculations under a *continuous* window fails to do so
under a *split* window: the dynamic instruction stream is divided into
tasks assigned to independent units that fetch concurrently, so a load in
a younger task can compute its address — and speculatively access memory
— before an older task has even fetched the store it depends on.

This model captures exactly the properties the section's argument needs:

* the trace is split into fixed-size tasks distributed round-robin over
  ``num_units`` sub-windows;
* units fetch *independently and concurrently* (no cross-unit program
  order priority);
* register dependences are honoured exactly (producers precomputed from
  the trace, standing in for Multiscalar's register forwarding);
* stores post their addresses as soon as possible into a global
  address-based scheduler with configurable latency, loads inspect it
  before accessing memory (AS/NAV), or ignore it (NAS/NAV);
* a true-dependence violation squashes the offending task and all
  younger tasks, which then re-execute;
* the sync fabric between the units (:mod:`repro.splitwindow.fabric`)
  can add link latency, bounded bandwidth and banked memory to the
  ideal, synchronous posting.

Each cycle runs, in order: fabric deliveries due this cycle (by visible
cycle, then send order), task spawn, per-unit fetch in unit order,
issue, commit. With the ideal fabric (the default) no message is ever
sent and posting is synchronous. Otherwise a posted address is a
message that becomes visible ``link_latency`` cycles later, plus any
queueing behind the per-cycle bandwidth limit, and its arrival checks
for dependent loads that issued while it was in flight. A cycle that
issues nothing, with nothing left to fetch, jumps the clock to the next
cycle in which anything can happen (docs/SPLITWINDOW.md, "One cycle").

It is deliberately simpler than the continuous-window core — the paper
uses the split model only for the qualitative contrast of Figure 7.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.config.processor import (
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.result import SimResult
from repro.isa.opcodes import OpClass
from repro.isa.registers import REG_ZERO
from repro.memory.hierarchy import MemoryHierarchy
from repro.splitwindow.fabric import BankedMemory, SyncFabric
from repro.trace.dependences import DependenceInfo, compute_dependence_info
from repro.trace.events import Trace


class _Inst:
    """Per-dynamic-instruction timing state.

    The class flags, the unit and the execution latency are fixed at
    construction; the rest is reset when a squash re-executes the
    instruction.
    """

    __slots__ = (
        "inst", "seq", "task", "unit", "producers", "is_load", "is_store",
        "is_branch", "is_fp", "lat", "ready", "dispatch_cycle",
        "issue_cycle", "complete_cycle", "write_cycle", "posted_cycle",
        "mem_issue_cycle", "forwarded_from",
    )

    def __init__(
        self, inst, task: int, unit: int, producers: Tuple["_Inst", ...],
        lat: int,
    ):
        op = inst.op
        self.inst = inst
        self.seq = inst.seq
        self.task = task
        self.unit = unit
        self.producers = producers
        self.is_load = op is OpClass.LOAD
        self.is_store = op is OpClass.STORE
        self.is_branch = op.branch_class
        self.is_fp = op.fp_class
        self.lat = lat
        self.reset()

    def reset(self) -> None:
        #: Register-ready cycle, cached once every producer has completed.
        self.ready: Optional[int] = None
        self.dispatch_cycle: Optional[int] = None
        self.issue_cycle: Optional[int] = None
        #: Done cycle; for a store it always equals ``write_cycle``.
        self.complete_cycle: Optional[int] = None
        self.write_cycle: Optional[int] = None
        self.posted_cycle: Optional[int] = None
        self.mem_issue_cycle: Optional[int] = None
        self.forwarded_from: Optional[int] = None


class SplitWindowProcessor:
    """Split-window machine bound to one trace."""

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Trace,
        dep_info: Optional[Dict[int, DependenceInfo]] = None,
    ) -> None:
        if not config.split.enabled:
            raise ValueError("config.split.enabled must be True")
        if config.memdep.policy not in (
            SpeculationPolicy.NAIVE, SpeculationPolicy.NO
        ):
            raise ValueError(
                "split-window model supports NAV and NO policies"
            )
        if config.observe:
            raise ValueError(
                "config.observe is not supported on the split-window "
                "machine: it emits no observer events yet (ROADMAP.md "
                "item 4, 'One instrumentation path')"
            )
        self.config = config
        self.trace = trace
        self.dep_info = (
            dep_info if dep_info is not None
            else compute_dependence_info(trace)
        )
        self.as_mode = config.memdep.scheduling is SchedulingModel.AS
        split = config.split
        self.memory = BankedMemory(
            MemoryHierarchy(config), split.mem_banks, split.bank_ports
        )
        self.fabric = SyncFabric(split.link_latency, split.sync_bandwidth)

        task_size = split.task_size
        units = split.num_units
        latency = {op: config.latencies.latency(op) for op in OpClass}
        self._insts: List[_Inst] = []
        #: Youngest writer of each register; never holds REG_ZERO.
        last_writer: Dict[int, _Inst] = {}
        for inst in trace:
            task = inst.seq // task_size
            record = _Inst(
                inst, task, task % units,
                tuple([last_writer[src] for src in inst.srcs
                       if src in last_writer]),
                latency[inst.op],
            )
            self._insts.append(record)
            if inst.dest is not None and inst.dest != REG_ZERO:
                last_writer[inst.dest] = record
        self.num_tasks = (
            (len(trace) + task_size - 1) // task_size if len(trace) else 0
        )

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        config = self.config
        stats = SimResult(
            config_label=f"split{config.split.num_units} {config.label}",
            benchmark=self.trace.name,
            suite=self.trace.suite,
        )
        insts = self._insts
        num_insts = len(insts)
        num_tasks = self.num_tasks
        task_size = config.split.task_size
        units = config.split.num_units
        per_unit_fetch = max(1, config.fetch.width // units)
        per_unit_issue = max(1, config.window.issue_width // units)
        requeue_cap = 4 * units * per_unit_issue
        memory_ports = config.window.memory_ports
        fu_copies = config.window.fu_copies
        sched_latency = config.memdep.addr_scheduler_latency
        refill = config.memdep.squash_refill_penalty
        as_mode = self.as_mode
        fabric = self.fabric
        evented = fabric.evented
        inbox = fabric.heap
        memory_load = self.memory.load
        forward_source = self._forward_source

        #: Oldest not-yet-committed task.
        commit_task = 0
        #: Latest completion cycle of ``commit_task`` once all of it has
        #: issued; None until then, and after a squash.
        commit_at: Optional[int] = None
        #: Per task: instructions not yet issued.
        unissued = [
            min(task_size, num_insts - task * task_size)
            for task in range(num_tasks)
        ]
        #: Per unit: task index currently running, or None.
        running: List[Optional[int]] = [None] * units
        next_task = 0
        #: Per task: index of next instruction to dispatch (set at spawn).
        cursor = [0] * num_tasks
        #: Posted store addresses by seq.
        posted: Dict[int, _Inst] = {}
        #: Dependent loads by producing store seq.
        dep_loads: Dict[int, List[_Inst]] = {}
        for record in insts:
            info = self.dep_info.get(record.seq)
            if info is not None:
                dep_loads.setdefault(info.store_seq, []).append(record)

        #: Dispatched, unissued seqs in program order (seq = index).
        pending: List[int] = []
        cycle = 0
        task_resume_at = 0
        guard_limit = 80 * num_insts + 10_000

        def squash_from_seq(seq: int, resume: int) -> None:
            """Squash the load at *seq* and everything younger.

            The offending load's task rewinds to the load (instructions
            before it, including any already-written same-task stores,
            survive — squash invalidation re-executes only the load and
            its successors); strictly younger tasks restart entirely.
            """
            nonlocal next_task, task_resume_at, commit_at
            task = insts[seq].task
            for u in range(units):
                if running[u] is not None and running[u] > task:
                    running[u] = None
            next_task = min(next_task, task + 1)
            for record in insts[seq:]:
                if record.dispatch_cycle is None:
                    # Never fetched since its last reset: nothing to undo.
                    if record.task > task + units:
                        break
                    continue
                if record.complete_cycle is not None:
                    unissued[record.task] += 1
                record.reset()
            for posted_seq in [s for s in posted if s >= seq]:
                del posted[posted_seq]
            fabric.cancel_from(seq)
            del pending[bisect_left(pending, seq):]
            cursor[task] = seq
            task_resume_at = resume
            commit_at = None

        def violation(load: _Inst, store: _Inst) -> Tuple[int, int]:
            """Count *load*'s miss-speculation on *store*; return the
            squash it needs."""
            stats.misspeculations += 1
            stats.squashed_instructions += max(
                0, cursor[load.task] - load.seq
            )
            return load.seq, store.write_cycle + refill

        def deliver(seq: int, visible: int) -> None:
            """A posted-address message arrived: finish posting, and
            squash a dependent load that issued while it was in flight.

            Such a load issued after the store issued (AS) or wrote
            (NAS) but before the fabric showed other units its address,
            so it consumed a value the machine could not know was about
            to change.
            """
            record = insts[seq]
            lower = record.issue_cycle if as_mode else record.write_cycle
            if lower is None:
                return  # posted on an issue attempt that never issued
            if not as_mode:
                posted[seq] = record
            commit_floor = commit_task * task_size
            for load in dep_loads.get(seq, ()):
                if (
                    load.seq >= commit_floor
                    and load.mem_issue_cycle is not None
                    and lower < load.mem_issue_cycle < visible
                    and load.forwarded_from != seq
                    and load.dispatch_cycle is not None
                ):
                    squash_from_seq(*violation(load, record))
                    break

        while commit_task < num_tasks:
            cycle += 1
            if cycle > guard_limit:
                raise RuntimeError("split-window simulation wedged")
            #: Did this cycle issue, or leave anything to fetch?
            busy = False

            # --- fabric deliveries due this cycle ---
            if inbox and inbox[0][0] <= cycle:
                for seq, visible in fabric.due(cycle):
                    deliver(seq, visible)

            # --- spawn tasks onto free units (in order) ---
            if cycle >= task_resume_at:
                for u in range(units):
                    if running[u] is None and next_task < num_tasks:
                        target = next_task % units
                        if running[target] is None:
                            running[target] = next_task
                            cursor[next_task] = next_task * task_size
                            next_task += 1

            # --- per-unit fetch/dispatch (independent, concurrent) ---
            waiting = len(pending)
            for task in running:
                if task is None:
                    continue
                pos = cursor[task]
                end = min((task + 1) * task_size, num_insts)
                if pos >= end:
                    continue
                stop = min(pos + per_unit_fetch, end)
                for record in insts[pos:stop]:
                    record.dispatch_cycle = cycle
                    record.ready = None
                pending.extend(range(pos, stop))
                cursor[task] = stop
                if stop < end:
                    busy = True
            if len(pending) > waiting:
                pending.sort()

            # --- issue: within-unit age priority, global port limits ---
            ports = memory_ports
            issued_per_unit = [0] * units
            fp_used = 0
            requeue: List[int] = []
            rest = len(pending)
            squash_request: Optional[Tuple[int, int]] = None
            #: Earliest cached ready cycle after this one.
            horizon = guard_limit + 1
            gated = False
            for i, seq in enumerate(pending):
                record = insts[seq]
                unit = record.unit
                if issued_per_unit[unit] >= per_unit_issue:
                    requeue.append(seq)
                    if len(requeue) > requeue_cap:
                        rest = i + 1
                        break
                    continue
                # Register readiness.
                ready = record.ready
                if ready is None:
                    ready = record.dispatch_cycle
                    for producer in record.producers:
                        done = producer.complete_cycle
                        if done is None:
                            ready = None
                            break
                        if done > ready:
                            ready = done
                    if ready is None:
                        requeue.append(seq)
                        continue
                    record.ready = ready
                if ready > cycle:
                    if ready < horizon:
                        horizon = ready
                    requeue.append(seq)
                    continue

                if record.is_store:
                    if as_mode and record.posted_cycle is None:
                        base = cycle + 1 + sched_latency
                        record.posted_cycle = (
                            fabric.send(seq, base) if evented else base
                        )
                        posted[seq] = record
                    if ports <= 0:
                        requeue.append(seq)
                        continue
                    ports -= 1
                    record.issue_cycle = cycle
                    record.write_cycle = record.complete_cycle = cycle + 2
                    if not as_mode:
                        if evented:
                            # Visible to other units on delivery.
                            fabric.send(seq, cycle + 1)
                        else:
                            posted[seq] = record
                    # Violation check happens when the store writes; do
                    # it eagerly here with the known write cycle.
                    for load in dep_loads.get(seq, ()):
                        if (
                            load.mem_issue_cycle is not None
                            and load.mem_issue_cycle <= cycle + 2
                            and load.forwarded_from != seq
                            and load.dispatch_cycle is not None
                        ):
                            squash_request = violation(load, record)
                            break
                elif record.is_load:
                    source = forward_source(record, posted, cycle)
                    if source is not None and (
                        source.write_cycle is None
                        or source.write_cycle > cycle
                    ):
                        gated = True  # wait for the older store's write
                        requeue.append(seq)
                        continue
                    if ports <= 0:
                        requeue.append(seq)
                        continue
                    ports -= 1
                    record.issue_cycle = record.mem_issue_cycle = cycle
                    if source is not None:
                        record.forwarded_from = source.seq
                        record.complete_cycle = max(
                            cycle + 1, source.write_cycle + 1
                        )
                    else:
                        record.complete_cycle = memory_load(
                            record.inst.addr, cycle
                        )
                else:
                    if record.is_fp:
                        if fp_used >= fu_copies:
                            requeue.append(seq)
                            continue
                        fp_used += 1
                    record.issue_cycle = cycle
                    record.complete_cycle = cycle + record.lat
                issued_per_unit[unit] += 1
                unissued[record.task] -= 1
                busy = True
                if squash_request is not None:
                    rest = i + 1
                    break

            if rest < len(pending):
                requeue += pending[rest:]
            pending = requeue
            if squash_request is not None:
                squash_from_seq(*squash_request)

            # --- commit whole tasks in program order ---
            while commit_task < num_tasks and not unissued[commit_task]:
                lo = commit_task * task_size
                if commit_at is None:
                    commit_at = max(
                        r.complete_cycle
                        for r in insts[lo:lo + task_size]
                    )
                if commit_at > cycle:
                    break
                for r in insts[lo:lo + task_size]:
                    stats.committed += 1
                    if r.is_load:
                        stats.committed_loads += 1
                    elif r.is_store:
                        stats.committed_stores += 1
                        posted.pop(r.seq, None)
                    elif r.is_branch:
                        stats.committed_branches += 1
                running[commit_task % units] = None
                commit_task += 1
                commit_at = None

            # --- nothing can happen before the next event: jump to it ---
            if not busy and commit_task < num_tasks:
                wake = horizon
                if inbox and inbox[0][0] < wake:
                    wake = inbox[0][0]
                if next_task < num_tasks and running[next_task % units] is None:
                    wake = min(wake, max(cycle + 1, task_resume_at))
                if commit_at is not None and commit_at < wake:
                    wake = commit_at
                if gated:
                    for store in posted.values():
                        for event in (store.posted_cycle, store.write_cycle):
                            if event is not None and cycle < event < wake:
                                wake = event
                cycle = wake - 1

        stats.cycles = cycle
        stats.extra["fabric"] = {**fabric.stats(), **self.memory.stats()}
        return stats

    def _forward_source(
        self, record: _Inst, posted: Dict[int, _Inst], cycle: int
    ) -> Optional[_Inst]:
        """The youngest older posted store overlapping this load that
        other units can see at *cycle*, or None.

        Under AS a store is seen once its address is posted (only stores
        the units have fetched and posted — the split-window loophole),
        and the load must wait for it to write. Under NAS only stores
        that have written are seen: the load forwards from one, or else
        speculates against memory.
        """
        inst = record.inst
        lo, hi = inst.addr, inst.addr + inst.size
        as_mode = self.as_mode
        match = None
        for seq, store in posted.items():
            if seq >= record.seq:
                continue
            visible = store.posted_cycle if as_mode else store.write_cycle
            if visible is None or visible > cycle:
                continue
            s = store.inst
            if s.addr < hi and lo < s.addr + s.size:
                if match is None or seq > match.seq:
                    match = store
        return match


def simulate_split(
    config: ProcessorConfig,
    trace: Trace,
    dep_info: Optional[Dict[int, DependenceInfo]] = None,
) -> SimResult:
    """Run the split-window model over *trace*."""
    return SplitWindowProcessor(config, trace, dep_info).run()
