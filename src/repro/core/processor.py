"""The cycle-level simulator for the centralized, continuous window.

Event-assisted cycle loop: per active cycle the processor processes due
events (completions, store writes, address posts), commits, issues
(program-order priority), dispatches and fetches. Idle stretches (e.g.
cache-miss stalls) are skipped by fast-forwarding to the next event.

The memory dependence speculation policies (Section 2.1 of the paper)
gate the *memory access* of loads; everything else is common machinery.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.branch.unit import BranchUnit
from repro.config.processor import (
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.fetch import FetchUnit
from repro.core.lsq import MemPool, SynonymTracker, UnexecutedStoreTracker
from repro.core.result import SimResult
from repro.core.scheduler import FunctionalUnits, ReadyPool
from repro.core.window import Entry, Window
from repro.isa.opcodes import OpClass
from repro.memdep.addr_scheduler import AddressScheduler
from repro.memdep.oracle import OracleDisambiguator
from repro.memdep.store_sets import StoreSetPredictor
from repro.memdep.sync import MDPT
from repro.memdep.tables import TwoBitPredictorTable
from repro.memdep.violation import ViolationDetector
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.store_buffer import StoreBuffer, StoreBufferEntry
from repro.trace.cursor import TraceCursor
from repro.trace.dependences import DependenceInfo, compute_dependence_info
from repro.trace.events import Trace
from repro.trace.sampling import SamplingPlan, make_sampling_plan

# Event kinds (heap entries are (cycle, serial, kind, entry)).
_EV_COMPLETE = 0
_EV_WRITE = 1
_EV_READY = 2
_EV_POST = 3

# Load-gate kinds. The speculation policy is fixed for a processor's
# lifetime, so the per-load gate is resolved to one of these small ints
# once in ``__init__`` and the policy logic is inlined in the
# ``_issue_memory`` scan instead of re-dispatching through an
# ``if policy is …`` chain for every pooled load every cycle.
_GATE_AS = 0
_GATE_OPEN = 1
_GATE_ALL_STORES = 2
_GATE_PREDICTED = 3
_GATE_BARRIER = 4
_GATE_SYNC = 5
_GATE_ORACLE = 6


class SimulationStuck(RuntimeError):
    """The cycle loop can make no further progress (a model bug)."""


def _entry_seq(entry: Entry) -> int:
    """Sort key for merging the load and store-write pools (AS mode)."""
    return entry.seq


class Processor:
    """One simulated machine bound to one trace."""

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Trace,
        dep_info: Optional[Dict[int, DependenceInfo]] = None,
        observer=None,
    ) -> None:
        if config.split.enabled:
            raise ValueError(
                "split-window configs run on "
                "repro.splitwindow.SplitWindowProcessor"
            )
        self.config = config
        self.trace = trace
        #: Optional observability bus (repro.observe). Every hook is an
        #: ``if observer is not None`` guard, so a detached processor is
        #: bit-identical and within noise of the pre-hook simulator.
        if observer is None and config.observe:
            from repro.observe.bus import default_observer

            observer = default_observer(config)
        self.observer = observer
        self.dep_info = (
            dep_info if dep_info is not None
            else compute_dependence_info(trace)
        )
        self.oracle = OracleDisambiguator(trace, self.dep_info)
        self.hierarchy = MemoryHierarchy(config)
        self.branch_unit = BranchUnit(config.branch)

        memdep = config.memdep
        self.as_mode = memdep.scheduling is SchedulingModel.AS
        self.policy = memdep.policy
        self.predictor: Optional[TwoBitPredictorTable] = None
        self.mdpt: Optional[MDPT] = None
        if self.policy in (
            SpeculationPolicy.SELECTIVE, SpeculationPolicy.STORE_BARRIER
        ):
            self.predictor = TwoBitPredictorTable(
                entries=memdep.predictor_entries,
                assoc=memdep.predictor_assoc,
                threshold=memdep.confidence_threshold,
            )
        elif self.policy is SpeculationPolicy.SYNC:
            self.mdpt = MDPT(
                entries=memdep.predictor_entries,
                assoc=memdep.predictor_assoc,
            )
        self.store_sets: Optional[StoreSetPredictor] = None
        if self.policy is SpeculationPolicy.STORE_SETS:
            self.store_sets = StoreSetPredictor(
                ssit_entries=memdep.predictor_entries,
                lfst_entries=memdep.lfst_entries,
            )

        if self.as_mode:
            self._gate_kind = _GATE_AS
        elif self.policy is SpeculationPolicy.NAIVE:
            self._gate_kind = _GATE_OPEN
        elif self.policy is SpeculationPolicy.NO:
            self._gate_kind = _GATE_ALL_STORES
        elif self.policy is SpeculationPolicy.SELECTIVE:
            self._gate_kind = _GATE_PREDICTED
        elif self.policy is SpeculationPolicy.STORE_BARRIER:
            self._gate_kind = _GATE_BARRIER
        elif self.policy in (
            SpeculationPolicy.SYNC, SpeculationPolicy.STORE_SETS
        ):
            self._gate_kind = _GATE_SYNC
        elif self.policy is SpeculationPolicy.ORACLE:
            self._gate_kind = _GATE_ORACLE
        else:
            raise AssertionError(f"unhandled policy {self.policy}")

        # Hot-path bindings (immutable for the processor's lifetime).
        # The latency table is flattened into a tuple indexed by
        # ``OpClass.index``: one subscript per issued op instead of an
        # override check plus a table fallback, and no Enum hashing.
        self._latencies = tuple(
            config.latencies.latency(op) for op in OpClass
        )
        self._issue_width = config.window.issue_width
        self._scan_budget = config.window.issue_width * 3

        #: Monotonic machine time across segments (caches keep state).
        self.cycle = 0
        self._next_flush = memdep.flush_interval

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, plan: Optional[SamplingPlan] = None) -> SimResult:
        """Simulate the whole trace and return aggregated timing stats.

        With a :class:`SamplingPlan`, timing segments are simulated in
        detail and functional segments only keep the caches and branch
        predictors warm (the paper's Section 3.1 methodology).
        """
        if plan is None:
            plan = make_sampling_plan(len(self.trace))
        total = SimResult(
            config_label=self.config.label,
            benchmark=self.trace.name,
            suite=self.trace.suite,
        )
        # The cycle loop allocates heavily (entries, events) and leaves
        # no cyclic garbage: entries drop their links to each other at
        # commit and squash, so reference counting frees everything.
        # Young-generation scans during a run would find nothing to
        # collect; pause collection for the simulation (docs/PERF.md).
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for segment in plan.segments:
                if segment.timing:
                    total.merge(
                        self._run_segment(segment.start, segment.stop)
                    )
                else:
                    self._warm_segment(segment.start, segment.stop)
        finally:
            if was_enabled:
                gc.enable()
        if self.observer is not None:
            total.extra["observe"] = self.observer.summary()
        self._snapshot_caches(total)
        return total

    # ------------------------------------------------------------------
    # functional warm-up (sampling)
    # ------------------------------------------------------------------

    def _warm_segment(self, start: int, stop: int) -> None:
        hierarchy = self.hierarchy
        icache_touch = hierarchy.icache.touch
        dcache_touch = hierarchy.dcache.touch
        l2_touch = hierarchy.l2.touch
        predict = self.branch_unit.predict_and_train
        instructions = self.trace.instructions
        block_shift = self.config.icache.block_bytes.bit_length() - 1
        last_block = -1
        for seq in range(start, stop):
            inst = instructions[seq]
            block = inst.pc >> block_shift
            if block != last_block:
                icache_touch(inst.pc)
                l2_touch(inst.pc)
                last_block = block
            op = inst.op
            if op.branch_class:
                predict(inst)
            elif op.mem_class:
                dcache_touch(inst.addr)
                l2_touch(inst.addr)
        # Functional intervals advance wall-clock time too (roughly one
        # instruction per cycle of untimed execution).
        self.cycle += max(1, (stop - start) // 2)

    # ------------------------------------------------------------------
    # timing simulation
    # ------------------------------------------------------------------

    def _run_segment(self, start: int, stop: int) -> SimResult:
        cfg = self.config
        stats = SimResult(
            config_label=cfg.label,
            benchmark=self.trace.name,
            suite=self.trace.suite,
        )
        self.stats = stats
        self.window = Window(cfg.window.size)
        self.cursor = TraceCursor(self.trace, start, stop)
        observer = self.observer
        self.fetch = FetchUnit(
            cfg, self.cursor, self.hierarchy, self.branch_unit
        )
        self.fetch.stalled_until = self.cycle
        self.fetch.observer = observer
        self.funits = FunctionalUnits(cfg.window)
        self.ready_pool = ReadyPool()
        self.load_pool = MemPool("load-pool", observer)
        self.store_write_pool = MemPool("store-write-pool", observer)
        # As many entries as the window: a full buffer then always
        # holds a committed store to evict, since the window cannot
        # hold more stores than it has entries.
        self.store_buffer = StoreBuffer(cfg.window.size, observer)
        self.unexec_stores = UnexecutedStoreTracker()
        self.barrier_stores = UnexecutedStoreTracker()
        self.synonyms = SynonymTracker()
        self.detector = ViolationDetector()
        self.addr_sched = (
            AddressScheduler(cfg.memdep.addr_scheduler_latency, observer)
            if self.as_mode else None
        )
        self._events: List = []
        #: Tie-breaking serials of events scheduled for the same cycle.
        self._next_serial = itertools.count(1).__next__
        #: Earliest future cycle hinted by a blocked memory op (min
        #: tracking replaces an append-per-blocked-entry hint list).
        self._hint: Optional[int] = None
        self._progress = False

        start_cycle = self.cycle
        branch_stats_base = (
            self.branch_unit.predictions,
            self.branch_unit.mispredictions,
        )

        fetch = self.fetch
        buffer = fetch.buffer
        buffer_cap = fetch._buffer_cap
        cursor = self.cursor
        trace_stop = cursor._stop
        entries = self.window._entries
        capacity = self.window.size
        events = self._events
        ready_heap = self.ready_pool._heap
        load_pool = self.load_pool
        write_pool = self.store_write_pool
        as_mode = self.as_mode
        next_cycle = self._next_cycle
        process_events = self._process_events
        commit = self._commit
        begin_cycle = self.funits.begin_cycle
        issue_memory = self._issue_memory
        issue_exec = self._issue_exec
        dispatch = self._dispatch
        fetch_tick = fetch.tick
        maybe_flush = self._maybe_flush_tables

        if observer is not None:
            observer.begin_segment(self)
        cycle = self.cycle
        # A phase is entered only when it has work: each test below is
        # the early exit the phase would otherwise take itself. The
        # pool tests are ``MemPool.__bool__`` (read through the pool:
        # compaction re-binds ``_items``); the fetch test skips every
        # state in which ``tick`` would fetch nothing and change
        # nothing. The FU counters are reset for the issue phases and
        # for observers (the utilisation sampler reads them every
        # cycle).
        while entries or events or not fetch.done:
            if self._progress or ready_heap:
                self._progress = False
                cycle += 1
            else:
                cycle = next_cycle()
            self.cycle = cycle
            if events and events[0][0] <= cycle:
                process_events()
            if entries:
                head = entries[0]
                done = (
                    head.write_cycle if head.is_store
                    else head.complete_cycle
                )
                if done is not None and done <= cycle:
                    commit()
            memory_work = len(load_pool._items) > load_pool._dead or (
                as_mode and len(write_pool._items) > write_pool._dead
            )
            if memory_work or ready_heap or observer is not None:
                begin_cycle(cycle)
            if memory_work:
                issue_memory()
            if ready_heap:
                issue_exec()
            if buffer and buffer[0][1] <= cycle and (
                len(entries) < capacity
            ):
                dispatch()
            if (
                len(buffer) < buffer_cap
                and fetch.waiting_on_branch is None
                and cycle >= fetch.stalled_until
                and cursor._pos < trace_stop
                and fetch_tick(cycle)
            ):
                self._progress = True
            if cycle >= self._next_flush:
                maybe_flush()
            if observer is not None:
                observer.end_cycle(self)

        stats.cycles = self.cycle - start_cycle
        stats.branch_predictions = (
            self.branch_unit.predictions - branch_stats_base[0]
        )
        stats.branch_mispredictions = (
            self.branch_unit.mispredictions - branch_stats_base[1]
        )
        stats.load_forwards = self.store_buffer.forwards
        return stats

    # -- clock -------------------------------------------------------------

    def _next_cycle(self) -> int:
        """The cycle after an idle one: fast-forward to the earliest of
        a blocked memory op's hint, the next event, the fetch buffer's
        next dispatch and fetch's restart."""
        best = self._hint
        self._hint = None
        if self._events:
            when = self._events[0][0]
            if best is None or when < best:
                best = when
        fetch = self.fetch
        nxt = fetch.next_dispatch_cycle()
        if nxt is not None and (best is None or nxt < best):
            best = nxt
        if (
            fetch.waiting_on_branch is None
            and not self.cursor.exhausted
            and len(fetch.buffer) < fetch._buffer_cap
        ):
            when = fetch.stalled_until
            if best is None or when < best:
                best = when
        if best is None:
            raise SimulationStuck(
                f"no progress possible at cycle {self.cycle} "
                f"(window={len(self.window)}, "
                f"loads={len(self.load_pool)}, "
                f"writes={len(self.store_write_pool)})"
            )
        nxt_cycle = self.cycle + 1
        return best if best > nxt_cycle else nxt_cycle

    def _schedule(self, cycle: int, kind: int, entry: Entry) -> None:
        heapq.heappush(
            self._events, (cycle, self._next_serial(), kind, entry)
        )

    # -- events -------------------------------------------------------------

    def _process_events(self) -> None:
        events = self._events
        cycle = self.cycle
        pop = heapq.heappop
        ready_push = self.ready_pool.push
        while events and events[0][0] <= cycle:
            _, _, kind, entry = pop(events)
            if entry.squashed:
                continue
            if kind == _EV_READY:
                ready_push(entry)
            elif kind == _EV_COMPLETE:
                self._on_complete(entry)
            elif kind == _EV_WRITE:
                self._on_store_write(entry)
            elif kind == _EV_POST:
                self._progress = True  # wake gates waiting on visibility

    def _on_complete(self, entry: Entry) -> None:
        done = entry.complete_cycle
        if done is not None and done > self.cycle:
            # Selective re-execution pushed this completion out; the
            # stale event fires early — re-arm it at the new time.
            self._schedule(done, _EV_COMPLETE, entry)
            return
        entry.executed = True
        waiters = entry.waiters
        if waiters:
            maybe_ready = self._maybe_ready
            for waiter, is_data in waiters:
                if waiter.squashed:
                    continue
                if is_data:
                    waiter.data_pending -= 1
                    if done > waiter.data_ready:
                        waiter.data_ready = done
                else:
                    waiter.addr_pending -= 1
                    if done > waiter.addr_ready:
                        waiter.addr_ready = done
                maybe_ready(waiter)
            if entry.consumers:
                entry.consumers.extend(waiters)
            else:
                entry.consumers = waiters
            entry.waiters = ()
        if entry.is_branch:
            self.fetch.resume_after_branch(entry.seq, done)
        self._progress = True

    def _on_store_write(self, store: Entry) -> None:
        if store.write_cycle is not None and (
            store.write_cycle > self.cycle
        ):
            # Pushed out by selective re-execution; re-arm.
            self._schedule(store.write_cycle, _EV_WRITE, store)
            return
        cycle = store.write_cycle
        store.executed = True
        self.hierarchy.store(store.inst.addr, cycle)
        self._progress = True

        violators = [
            load
            for load in self.detector.loads_violating(store.seq, cycle)
            if load.forwarded_from != store.seq
        ]
        if self.as_mode:
            violators = [
                load for load in violators
                if not load.stale_equal
                and self._value_propagated(load, cycle)
            ]
        if violators:
            oldest = min(violators, key=lambda e: e.seq)
            if self.config.memdep.recovery == "selective":
                self._selective_reexecute(oldest, store, cycle)
            else:
                self._squash_for_violation(oldest, store, cycle)

    def _value_propagated(self, load: Entry, write_cycle: int) -> bool:
        """Did any consumer of *load* already issue with its stale value?

        If not, hardware can silently re-forward the correct value (the
        paper's condition (2) for signalling an AS/NAV miss-speculation);
        the consumers are then held until the corrected value arrives.
        """
        consumers = (*load.consumers, *load.waiters)
        propagated = False
        for waiter, _ in consumers:
            if waiter.squashed:
                continue
            if waiter.issue_cycle is not None and (
                waiter.issue_cycle <= write_cycle
            ):
                propagated = True
                break
        if not propagated:
            # Re-forward: delay not-yet-issued consumers to the fix-up.
            for waiter, is_data in consumers:
                if waiter.squashed or waiter.issue_cycle is not None:
                    continue
                if is_data:
                    waiter.data_ready = max(
                        waiter.data_ready, write_cycle + 1
                    )
                else:
                    waiter.addr_ready = max(
                        waiter.addr_ready, write_cycle + 1
                    )
        return propagated

    def _store_buffer_insert(self, store: Entry, data_ready: int) -> None:
        buffer = self.store_buffer
        if buffer.full:
            head = self.window.head()
            head_seq = head.seq if head else store.seq
            # Buffer entries are seq-sorted, so the oldest store is the
            # only eviction candidate.
            if not buffer.evict_oldest_before(head_seq):
                # pragma: no cover - capacity equals window size
                raise SimulationStuck("store buffer wedged")
        buffer.insert(StoreBufferEntry(
            seq=store.seq,
            addr=store.inst.addr,
            size=store.inst.size,
            value=store.inst.value,
            data_ready_cycle=data_ready,
            drain_cycle=store.write_cycle,
        ))

    # -- squash -------------------------------------------------------------

    def _squash_for_violation(
        self, load: Entry, store: Entry, cycle: int
    ) -> None:
        stats = self.stats
        stats.misspeculations += 1
        seq = load.seq
        squashed = self.window.squash_from(seq)
        stats.squashed_instructions += len(squashed)
        # Squash only flags the entries; the mem pools memoize their
        # live view and must be told to refilter.
        self.load_pool.invalidate()
        self.store_write_pool.invalidate()
        self.unexec_stores.squash(seq)
        self.barrier_stores.squash(seq)
        self.synonyms.squash(seq)
        self.detector.squash(seq)
        self.store_buffer.squash_younger(seq)
        if self.addr_sched is not None:
            self.addr_sched.squash(seq)
        if self.store_sets is not None:
            self.store_sets.squash(seq)
        resume = cycle + self.config.memdep.squash_refill_penalty
        self.fetch.squash(seq, resume)
        if self.observer is not None:
            self.observer.emit_squash(
                load, store, cycle, len(squashed), resume
            )

        if self.policy is SpeculationPolicy.SELECTIVE:
            self.predictor.record_misspeculation(load.inst.pc)
        elif self.policy is SpeculationPolicy.STORE_BARRIER:
            self.predictor.record_misspeculation(store.inst.pc)
        elif self.policy is SpeculationPolicy.SYNC:
            self.mdpt.record_violation(load.inst.pc, store.inst.pc)
        elif self.policy is SpeculationPolicy.STORE_SETS:
            self.store_sets.record_violation(load.inst.pc, store.inst.pc)

    def _selective_reexecute(
        self, load: Entry, store: Entry, cycle: int
    ) -> None:
        """Selective invalidation (Section 2's alternative recovery).

        Only the miss-speculated load and the instructions that consumed
        its value re-execute: the load's completion moves to one cycle
        after the store's write (re-forward), and new completion times
        ripple through the dependence edges of already-issued dependents.
        Unrelated younger instructions are untouched — the work thrown
        away shrinks from "everything after the load" to the load's
        forward slice.
        """
        stats = self.stats
        stats.misspeculations += 1
        latencies = self._latencies
        new_complete: Dict[int, int] = {}
        reexecuted = 0

        load.forwarded_from = store.seq
        corrected = max(load.complete_cycle or 0, cycle + 1)
        if corrected != load.complete_cycle:
            load.complete_cycle = corrected
            self._schedule(corrected, _EV_COMPLETE, load)
        new_complete[load.seq] = corrected

        for entry in self.window:
            if entry.seq <= load.seq or entry.squashed:
                continue
            bump = 0
            for producer in entry.producers:
                when = new_complete.get(producer.seq)
                if when is not None and when > bump:
                    bump = when
            if not bump or entry.issue_cycle is None:
                # Not yet issued: it will naturally pick up the new
                # operand-ready times through the (bumped) ready fields.
                if bump:
                    entry.addr_ready = max(entry.addr_ready, bump)
                    entry.data_ready = max(entry.data_ready, bump)
                continue
            latency = latencies[entry.inst.op.index]
            if entry.is_load:
                latency += 2  # agen + re-access (forward/hit path)
            corrected = bump + latency
            old = (
                entry.write_cycle if entry.is_store
                else entry.complete_cycle
            )
            if old is not None and corrected > old:
                reexecuted += 1
                if entry.is_store:
                    entry.write_cycle = corrected
                    entry.complete_cycle = corrected
                    self._schedule(corrected, _EV_WRITE, entry)
                else:
                    entry.complete_cycle = corrected
                    self._schedule(corrected, _EV_COMPLETE, entry)
                new_complete[entry.seq] = corrected
        stats.squashed_instructions += reexecuted
        if self.observer is not None:
            self.observer.emit_replay(load, cycle, reexecuted)

    # -- commit -------------------------------------------------------------

    def _commit(self) -> None:
        window = self.window
        # The deque is read directly: the ``head()`` indirection is
        # measurable.
        entries = window._entries
        stats = self.stats
        budget = self._issue_width
        cycle = self.cycle
        observer = self.observer
        committed = 0
        while budget and entries:
            head = entries[0]
            done_cycle = (
                head.write_cycle if head.is_store else head.complete_cycle
            )
            if done_cycle is None or done_cycle > cycle:
                break
            window.commit_head()
            budget -= 1
            committed += 1
            if observer is not None:
                observer.emit_commit(head, cycle)
            # Nothing reads a retired entry's links; dropping them
            # breaks its reference cycles with the entries it linked.
            head.producers = head.consumers = ()
            if head.is_load:
                stats.committed_loads += 1
                if head.speculative:
                    stats.speculative_loads += 1
                if head.fd_class == "false":
                    stats.false_dependence_loads += 1
                    if head.fd_resolved_cycle is not None:
                        stats.false_dependence_latency += (
                            head.fd_resolved_cycle - head.fd_wait_start
                        )
                elif head.fd_class == "true":
                    stats.true_dependence_loads += 1
            elif head.is_store:
                stats.committed_stores += 1
                self.detector.retire_store(head.seq)
                self.synonyms.retire(head.sync_synonym, head)
                if self.addr_sched is not None:
                    self.addr_sched.remove_store(head.seq)
                if self.store_sets is not None:
                    self.store_sets.store_retired(head)
            elif head.is_branch:
                stats.committed_branches += 1
        if committed:
            stats.committed += committed
            self._progress = True

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self) -> None:
        window = self.window
        capacity = window.size
        # Occupancy is tracked locally: ``len(window)`` per dispatched
        # instruction adds up, as does one ``pop_dispatchable`` call per
        # instruction (plus a None-returning one every cycle) — the
        # fetch buffer is walked directly instead.
        occupancy = len(window._entries)
        buffer = self.fetch.buffer
        maybe_ready = self._maybe_ready
        budget = self._issue_width
        cycle = self.cycle
        observer = self.observer
        while budget and occupancy < capacity:
            if not buffer or buffer[0][1] > cycle:
                break
            inst = buffer.popleft()[0]
            occupancy += 1
            entry = Entry(inst, cycle)
            window.dispatch(entry)
            budget -= 1
            self._progress = True
            if entry.is_load:
                self._on_load_dispatch(entry)
            elif entry.is_store:
                self._on_store_dispatch(entry)
            maybe_ready(entry)
            if observer is not None:
                observer.emit_dispatch(entry, cycle)

    def _on_load_dispatch(self, entry: Entry) -> None:
        info = self.dep_info.get(entry.seq)
        if info is not None:
            entry.dep_store_seq = info.store_seq
            entry.stale_equal = info.stale_equal
            self.detector.register_load(entry, info.store_seq)
        if self.policy is SpeculationPolicy.SELECTIVE:
            entry.predicted_dep = self.predictor.predicts_dependence(
                entry.inst.pc
            )
        elif self.policy is SpeculationPolicy.SYNC:
            prediction = self.mdpt.predict_load(entry.inst.pc)
            if prediction is not None:
                entry.sync_synonym = prediction.synonym
                entry.sync_wait_store = (
                    self.synonyms.closest_older_producer(
                        prediction.synonym, entry.seq
                    )
                )
        elif self.policy is SpeculationPolicy.STORE_SETS:
            entry.sync_wait_store = self.store_sets.load_dispatched(
                entry
            )

    def _on_store_dispatch(self, entry: Entry) -> None:
        self.unexec_stores.on_dispatch(entry.seq)
        if self.addr_sched is not None:
            self.addr_sched.on_store_dispatch(entry.seq)
        if self.policy is SpeculationPolicy.STORE_BARRIER:
            if self.predictor.predicts_dependence(entry.inst.pc):
                entry.barrier = True
                self.barrier_stores.on_dispatch(entry.seq)
        elif self.policy is SpeculationPolicy.SYNC:
            prediction = self.mdpt.predict_store(entry.inst.pc)
            if prediction is not None:
                entry.sync_synonym = prediction.synonym
                self.synonyms.add_producer(prediction.synonym, entry)
        elif self.policy is SpeculationPolicy.STORE_SETS:
            # Store-to-store ordering within a set: this store waits for
            # the set's previous (last fetched) store.
            entry.sync_wait_store = self.store_sets.store_dispatched(
                entry
            )

    # -- readiness ---------------------------------------------------------------

    def _maybe_ready(self, entry: Entry) -> None:
        if entry.issue_cycle is not None or entry.in_ready_pool:
            # Already issued its scheduler phase; stores in AS mode may
            # still be waiting on data for the write phase.
            if (
                entry.is_store and self.as_mode
                and entry.agen_done is not None
                and not entry.data_pending
                and not entry.in_mem_pool
                and entry.write_cycle is None
            ):
                self.store_write_pool.push(entry)
                self._progress = True
            return
        # Execution-readiness (NAS stores need address + data; everything
        # else goes to the scheduler once its address sources are ready).
        if entry.is_store and not self.as_mode:
            if entry.addr_pending or entry.data_pending:
                return
            ready_at = entry.addr_ready
            if entry.data_ready > ready_at:
                ready_at = entry.data_ready
        else:
            if entry.addr_pending:
                return
            ready_at = entry.addr_ready
        if ready_at <= self.cycle:
            self.ready_pool.push(entry)
        else:
            self._schedule(ready_at, _EV_READY, entry)

    # -- issue -------------------------------------------------------------

    def _issue_exec(self) -> None:
        funits = self.funits
        heap = self.ready_pool._heap
        heappop = heapq.heappop
        cycle = self.cycle
        as_mode = self.as_mode
        latencies = self._latencies
        events = self._events
        next_serial = self._next_serial
        observer = self.observer
        deferred: List[Entry] = []
        progress = False
        scans = self._scan_budget
        issue_width = funits._issue_width
        fu_copies = funits._fu_copies
        # The slot and FU counters are kept in locals for the loop and
        # written back before the deferred entries are re-pushed.
        issued = funits._issued
        int_used = funits._int_used
        fp_used = funits._fp_used
        while issued < issue_width and scans and heap:
            # ``ReadyPool.pop``, inlined: a squashed entry leaves the
            # heap without costing a scan.
            entry = heappop(heap)[1]
            entry.in_ready_pool = False
            if entry.squashed:
                continue
            scans -= 1
            nas_store = entry.is_store and not as_mode
            if nas_store:
                if entry.addr_pending or entry.data_pending:
                    continue
                ready_at = entry.addr_ready
                if entry.data_ready > ready_at:
                    ready_at = entry.data_ready
            elif entry.addr_pending:
                continue
            else:
                ready_at = entry.addr_ready
            if ready_at > cycle:
                self._schedule(ready_at, _EV_READY, entry)
                continue
            fp = entry.uses_fp_unit
            if (fp_used if fp else int_used) >= fu_copies:
                deferred.append(entry)
                continue
            if nas_store:
                # Store-set ordering: a store waits for its set's
                # previous store to issue first.
                wait = entry.sync_wait_store
                if (
                    wait is not None
                    and not wait.squashed
                    and wait.issue_cycle is None
                ):
                    deferred.append(entry)
                    continue
                # NAS store: single issue needs a memory port too.
                if not funits.can_access_memory():
                    deferred.append(entry)
                    continue
                funits.take_port()
            issued += 1
            if fp:
                fp_used += 1
            else:
                int_used += 1
            if nas_store:
                self._do_issue_store_nas(entry)
            elif entry.is_store:
                self._do_issue_store_agen_as(entry)
            elif entry.is_load:
                self._do_issue_load_agen(entry)
            else:
                # ALU op: completes after its class's latency.
                entry.issue_cycle = cycle
                done = cycle + latencies[entry.inst.op.index]
                entry.complete_cycle = done
                heapq.heappush(
                    events, (done, next_serial(), _EV_COMPLETE, entry)
                )
                if observer is not None:
                    observer.emit_issue(entry, cycle)
            progress = True
        funits._issued = issued
        funits._int_used = int_used
        funits._fp_used = fp_used
        if deferred:
            push = self.ready_pool.push
            for entry in deferred:
                push(entry)
            progress = True
        if progress:
            self._progress = True

    def _do_issue_load_agen(self, entry: Entry) -> None:
        entry.issue_cycle = self.cycle
        done = self.cycle + 1
        entry.agen_done = done
        self.load_pool.push(entry)
        if self._hint is None or done < self._hint:
            self._hint = done
        if self.observer is not None:
            self.observer.emit_issue(entry, self.cycle)

    def _do_issue_store_nas(self, entry: Entry) -> None:
        entry.issue_cycle = self.cycle
        entry.agen_done = self.cycle + 1
        # 1 cycle address calculation + 1 cycle to the store buffer.
        entry.write_cycle = self.cycle + 2
        entry.complete_cycle = entry.write_cycle
        # The store has issued: younger loads may now go (they forward
        # from the store buffer, where the data is available next cycle).
        self.unexec_stores.on_execute(entry.seq)
        if entry.barrier:
            self.barrier_stores.on_execute(entry.seq)
        self._store_buffer_insert(entry, data_ready=self.cycle + 1)
        self._schedule(entry.write_cycle, _EV_WRITE, entry)
        if self.observer is not None:
            self.observer.emit_issue(entry, self.cycle)

    def _do_issue_store_agen_as(self, entry: Entry) -> None:
        entry.issue_cycle = self.cycle
        entry.agen_done = self.cycle + 1
        visible = self.addr_sched.post_address(entry, entry.agen_done)
        entry.posted_cycle = visible
        self._schedule(visible, _EV_POST, entry)
        if not entry.data_pending:
            self.store_write_pool.push(entry)
        if self.observer is not None:
            self.observer.emit_issue(entry, self.cycle)

    # -- memory stage -----------------------------------------------------------

    def _issue_memory(self) -> None:
        # Candidates scan in program order. The two pools are each kept
        # seq-sorted, and NAS machines never use the store-write pool
        # (NAS stores write directly from ``_do_issue_store_nas``), so
        # the common case needs no sort and no concatenation at all.
        loads = self.load_pool.live_entries()
        if self.as_mode:
            writes = self.store_write_pool.live_entries()
            if writes:
                if loads:
                    candidates = loads + writes
                    candidates.sort(key=_entry_seq)
                else:
                    candidates = writes
            else:
                candidates = loads
        else:
            candidates = loads
        if not candidates:
            return
        funits = self.funits
        cycle = self.cycle
        kind = self._gate_kind
        hint = self._hint
        progress = False
        observer = self.observer
        # Ports are counted in a local and written back after the scan.
        memory_ports = funits._memory_ports
        ports_used = funits._ports_used
        # NO/SEL gate on the oldest unexecuted store, STORE on the
        # oldest unexecuted *barrier* store. Both trackers are constant
        # for the duration of the scan (NAS stores execute in
        # ``_issue_exec``, which runs after this), so resolve the
        # threshold once instead of binary-searching per load.
        if kind == _GATE_ALL_STORES or kind == _GATE_PREDICTED:
            blocked_from = self.unexec_stores.oldest()
        elif kind == _GATE_BARRIER:
            blocked_from = self.barrier_stores.oldest()
        else:
            blocked_from = None
        window_get = self.window.get
        note_fd_wait = self._note_fd_wait
        for entry in candidates:
            if ports_used >= memory_ports:
                progress = True  # ports exhausted: retry next cycle
                break
            if entry.is_store:
                ready = entry.data_ready
                agen = entry.agen_done or 0
                if agen > ready:
                    ready = agen
                if ready > cycle:
                    if hint is None or ready < hint:
                        hint = ready
                    continue
                ports_used += 1
                self.store_write_pool.remove(entry)
                entry.write_cycle = cycle + 1
                entry.complete_cycle = entry.write_cycle
                self.unexec_stores.on_execute(entry.seq)
                if entry.barrier:
                    self.barrier_stores.on_execute(entry.seq)
                self._store_buffer_insert(entry, data_ready=cycle + 1)
                self._schedule(entry.write_cycle, _EV_WRITE, entry)
                if observer is not None:
                    observer.emit_mem_issue(entry, cycle, False)
                progress = True
                continue
            # -- loads: the policy gate (Section 2.1), inlined ---------
            agen = entry.agen_done
            if agen is None or agen > cycle:
                if agen is not None and (hint is None or agen < hint):
                    hint = agen
                continue
            if kind == _GATE_OPEN:
                pass  # NAV: speculate as soon as the address is ready
            elif kind == _GATE_ALL_STORES:
                if blocked_from is not None and blocked_from < entry.seq:
                    if entry.fd_wait_start is None:
                        note_fd_wait(entry)
                    continue
            elif kind == _GATE_PREDICTED:
                if (
                    entry.predicted_dep
                    and blocked_from is not None
                    and blocked_from < entry.seq
                ):
                    if entry.fd_wait_start is None:
                        note_fd_wait(entry)
                    continue
            elif kind == _GATE_BARRIER:
                if blocked_from is not None and blocked_from < entry.seq:
                    if entry.fd_wait_start is None:
                        note_fd_wait(entry)
                    continue
            elif kind == _GATE_SYNC:
                wait = entry.sync_wait_store
                if not (
                    wait is None or wait.squashed or wait.executed
                ):
                    issued = wait.issue_cycle
                    if issued is None:
                        if observer is not None and (
                            not entry.observed_blocked
                        ):
                            entry.observed_blocked = True
                            observer.emit_blocked(
                                entry, cycle, "sync-wait"
                            )
                        continue
                    # Free to issue one cycle after the producer issues.
                    if cycle < issued + 1:
                        if hint is None or issued + 1 < hint:
                            hint = issued + 1
                        if observer is not None and (
                            not entry.observed_blocked
                        ):
                            entry.observed_blocked = True
                            observer.emit_blocked(
                                entry, cycle, "sync-wait"
                            )
                        continue
            elif kind == _GATE_ORACLE:
                dep_seq = entry.dep_store_seq
                if dep_seq is not None:
                    dep = window_get(dep_seq)
                    if dep is not None and not dep.executed:
                        issued = dep.issue_cycle
                        if issued is None:
                            if entry.fd_wait_start is None:
                                note_fd_wait(entry)
                            continue
                        # Value available one cycle after the producing
                        # store issues (forwarded from the store buffer)
                        # — the paper's oracle still charges the store's
                        # own issue timing (Section 3.4.1).
                        if cycle < issued + 1:
                            if hint is None or issued + 1 < hint:
                                hint = issued + 1
                            continue
            else:  # _GATE_AS
                open_, gate_hint = self._load_gate_as(entry)
                if not open_:
                    if gate_hint is not None and (
                        hint is None or gate_hint < hint
                    ):
                        hint = gate_hint
                    if observer is not None and (
                        not entry.observed_blocked
                    ):
                        entry.observed_blocked = True
                        observer.emit_blocked(entry, cycle, "as-wait")
                    continue
            # Table 3 accounting: a formerly-blocked load resolves now.
            if entry.fd_wait_start is not None and (
                entry.fd_resolved_cycle is None
            ):
                entry.fd_resolved_cycle = cycle
            ports_used += 1
            self.load_pool.remove(entry)
            self._access_memory(entry)
            progress = True
        funits._ports_used = ports_used
        self._hint = hint
        if progress:
            self._progress = True

    def _access_memory(self, entry: Entry) -> None:
        cycle = self.cycle
        inst = entry.inst
        entry.mem_issue_cycle = cycle
        if self.unexec_stores.any_older_than(entry.seq):
            entry.speculative = True
        dep_entry = (
            self.window.get(entry.dep_store_seq)
            if entry.dep_store_seq is not None else None
        )
        if dep_entry is not None and not dep_entry.executed:
            entry.premature = True
        buffered, full = self.store_buffer.search(
            entry.seq, inst.addr, inst.size
        )
        if buffered is not None and full:
            complete = max(cycle + 1, buffered.data_ready_cycle + 1)
            entry.forwarded_from = buffered.seq
        elif buffered is not None:
            # Partial overlap: wait for the store, then read the cache.
            start = max(cycle, buffered.data_ready_cycle)
            complete = self.hierarchy.load(inst.addr, start)
        else:
            complete = self.hierarchy.load(inst.addr, cycle)
        entry.complete_cycle = complete
        self._schedule(complete, _EV_COMPLETE, entry)
        if self.observer is not None:
            self.observer.emit_mem_issue(
                entry, cycle, entry.forwarded_from is not None
            )

    # -- load gates (the paper's policies) ---------------------------------------
    #
    # The NAS gates are inlined in ``_issue_memory`` (selected by
    # ``self._gate_kind``); only the AS gate is complex enough to stay
    # a method.

    def _load_gate_as(self, entry: Entry) -> Tuple[bool, Optional[int]]:
        cycle = self.cycle
        search_from = entry.agen_done + self.addr_sched.latency
        if cycle < search_from:
            return False, search_from
        if self.policy is SpeculationPolicy.NO:
            if not self.addr_sched.all_older_posted(entry.seq, cycle):
                self._note_fd_wait(entry)
                return False, None
        match = self.addr_sched.youngest_older_match(
            entry.seq, entry.inst.addr, entry.inst.size, cycle
        )
        if match is not None:
            # A known true dependence: the load always waits for the
            # store's data, then forwards from the store buffer.
            if match.write_cycle is None:
                return False, None
            if cycle < match.write_cycle:
                return False, match.write_cycle
        return True, None

    # -- Table 3 accounting ---------------------------------------------------

    def _note_fd_wait(self, entry: Entry) -> None:
        """Record the first cycle a load was blocked by older stores."""
        if entry.fd_wait_start is not None:
            return
        entry.fd_wait_start = self.cycle
        dep = (
            self.window.get(entry.dep_store_seq)
            if entry.dep_store_seq is not None else None
        )
        if dep is not None and not dep.executed:
            entry.fd_class = "true"
        else:
            entry.fd_class = "false"
        if self.observer is not None:
            self.observer.emit_blocked(
                entry, self.cycle, f"fd-{entry.fd_class}"
            )

    # -- periodic table flushes ---------------------------------------------------

    def _maybe_flush_tables(self) -> None:
        if self.cycle < self._next_flush:
            return
        interval = self.config.memdep.flush_interval
        while self._next_flush <= self.cycle:
            self._next_flush += interval
        if self.predictor is not None:
            self.predictor.flush()
        if self.mdpt is not None:
            self.mdpt.flush()
        if self.store_sets is not None:
            self.store_sets.flush()

    # -- cache stat snapshots ---------------------------------------------------

    def _snapshot_caches(self, stats: SimResult) -> None:
        stats.dcache_accesses = self.hierarchy.dcache.accesses
        stats.dcache_misses = self.hierarchy.dcache.misses
        stats.icache_accesses = self.hierarchy.icache.accesses
        stats.icache_misses = self.hierarchy.icache.misses
        stats.l2_accesses = self.hierarchy.l2.accesses
        stats.l2_misses = self.hierarchy.l2.misses


def simulate(
    config: ProcessorConfig,
    trace: Trace,
    plan: Optional[SamplingPlan] = None,
    dep_info: Optional[Dict[int, DependenceInfo]] = None,
    observer=None,
    backend: Optional[str] = None,
) -> SimResult:
    """Convenience wrapper: build a processor for *trace* and run it.

    *backend* picks the continuous-window core (``"reference"`` or
    ``"vector"``); None defers to ``config.backend`` and then the
    ``$REPRO_BACKEND`` environment variable. All backends produce
    bit-identical results — see :mod:`repro.core.backend`. A
    split-window config runs on the split-window machine instead, which
    takes no sampling plan and no observer.
    """
    from repro.core.backend import get_backend, resolve_backend

    name = resolve_backend(backend, config)
    if config.split.enabled:
        if plan is not None or observer is not None:
            raise ValueError(
                "the split-window machine takes no sampling plan "
                "or observer"
            )
        from repro.splitwindow.processor import SplitWindowProcessor

        return SplitWindowProcessor(config, trace, dep_info).run()
    processor = get_backend(name)(
        config, trace, dep_info, observer=observer
    )
    return processor.run(plan)
