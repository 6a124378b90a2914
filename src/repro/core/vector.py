"""Structure-of-arrays simulator core (the ``vector`` backend).

A line-by-line port of :class:`repro.core.processor.Processor` onto
packed per-instruction columns consumed straight from
:class:`~repro.trace.compiled.CompiledTrace`: no ``DynInst`` or
``Entry`` objects exist on the fast path. Every per-entry attribute of
the reference core becomes one slot of a preallocated array indexed by
``seq``, and object identity (the reference's ``entry.squashed`` /
``is entry`` tests) becomes an *incarnation serial*: ``serial[seq]``
increments each time ``seq`` is (re-)dispatched after a squash, and any
record that captured ``(seq, ref)`` is stale exactly when
``ref != serial[seq]``. The module imports nothing outside the
standard library.

The port must stay bit-identical to the reference — the golden-parity
suite and CI's ``backend-parity`` job compare every :class:`SimResult`
field. Observed runs are routed to the reference backend by
:func:`repro.core.backend.vector_limitation`, and split-window configs
run on :class:`repro.splitwindow.SplitWindowProcessor`; this class
rejects those arguments outright.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import os
from collections import deque
from itertools import repeat as _irepeat
from typing import Dict, List, Optional

from repro.branch.unit import BranchUnit
from repro.config.processor import (
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.lsq import UnexecutedStoreTracker
from repro.core.processor import (
    SimulationStuck,
    _EV_COMPLETE,
    _EV_POST,
    _EV_READY,
    _EV_WRITE,
    _GATE_ALL_STORES,
    _GATE_AS,
    _GATE_BARRIER,
    _GATE_OPEN,
    _GATE_ORACLE,
    _GATE_PREDICTED,
    _GATE_SYNC,
)
from repro.core.result import SimResult
from repro.isa.opcodes import OpClass
from repro.isa.registers import REG_ZERO
from repro.memdep.store_sets import StoreSetPredictor
from repro.memdep.sync import MDPT
from repro.memdep.tables import TwoBitPredictorTable
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.store_buffer import StoreBuffer, StoreBufferEntry
from repro.trace.compiled import (
    CompiledTrace,
    _mask_bit,
    _op_table,
    compile_trace,
)
from repro.trace.dependences import DependenceInfo
from repro.trace.sampling import SamplingPlan, make_sampling_plan

_TAKEN_MAP = (None, False, True)

#: Set bit positions (LSB-first) of every byte value.
_SET_BITS = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)
)


def _null_indices(mask: bytes, n: int) -> List[int]:
    """Row indices set in a one-bit-per-row null bitmap (LSB-first)."""
    out: List[int] = []
    for bi, byte in enumerate(mask):
        if byte:
            base = bi << 3
            for bit in _SET_BITS[byte]:
                out.append(base + bit)
    # Only the last byte can carry bits past the final row.
    while out and out[-1] >= n:
        out.pop()
    return out


def _class_table(ops, predicate) -> bytes:
    """256-byte translate table: op byte -> 1 where predicate holds."""
    table = bytearray(256)
    for i, op in enumerate(ops):
        if predicate(op):
            table[i] = 1
    return bytes(table)


class _Columns:
    """Static per-seq columns shared by every segment of one run."""

    __slots__ = (
        "n", "name", "suite", "ops", "opb", "pc", "size", "addr",
        "value", "target", "taken", "dest_eff", "srcs_off", "srcs_flat",
        "is_load_b", "is_store_b", "branch_b", "mem_b", "fp_b",
        "dep_of", "stale_of", "prod_flat", "deps",
    )


def _attach_producers(col: _Columns) -> None:
    """Static rename: per source operand, the youngest older writer.

    ``prod_flat[k]`` (parallel to ``srcs_flat``) is the youngest seq
    before the consumer that writes the operand's register, or -1.
    Because the window is a contiguous seq range and dispatch is
    in-order, the recorded producer is the *window's* producer exactly
    when it is still live — ``prod_flat[k] >= w_head`` — which replaces
    the reference core's dynamically maintained rename map.
    """
    srcs_off = col.srcs_off
    srcs_flat = col.srcs_flat
    dest_eff = col.dest_eff
    prod = [-1] * len(srcs_flat)
    rename: Dict[int, int] = {}
    get = rename.get
    k = 0
    for s in range(col.n):
        hi = srcs_off[s + 1]
        while k < hi:
            src = srcs_flat[k]
            if src != REG_ZERO:
                prod[k] = get(src, -1)
            k += 1
        d = dest_eff[s]
        if d >= 0:
            rename[d] = s
    col.prod_flat = prod
    # Per-seq dependence tuples: dispatch walks only real producers
    # instead of re-deriving them from the flat operand columns every
    # time. ``is_data`` marks the store-data operand (second source).
    is_store_b = col.is_store_b
    deps: List = []
    for s in range(col.n):
        lo = srcs_off[s]
        hi = srcs_off[s + 1]
        dd = None
        for k in range(lo, hi):
            p = prod[k]
            if p >= 0:
                rec = (p, 1 if is_store_b[s] and k == lo + 1 else 0)
                if dd is None:
                    dd = [rec]
                else:
                    dd.append(rec)
        deps.append(tuple(dd) if dd else ())
    col.deps = deps


def _columns_from_compiled(compiled: CompiledTrace) -> _Columns:
    n = compiled.length
    col = _Columns()
    col.n = n
    col.name = compiled.name
    col.suite = compiled.suite
    ops = _op_table(compiled)
    col.ops = ops
    col.opb = bytes(compiled.op)
    col.pc = compiled.pc.tolist()
    col.size = compiled.size.tolist()
    col.addr = compiled.addr.tolist()
    value = compiled.value.tolist()
    target = compiled.target.tolist()
    # Null bitmaps are dense (most rows have no value or target), so
    # the walk visits set bits through a per-byte table.
    for mask, out in (
        (compiled.value_null, value),
        (compiled.target_null, target),
    ):
        for i in _null_indices(mask, n):
            out[i] = None
    # dest: None packs as 0 and REG_ZERO == 0; both mean "no register
    # result" to dispatch/commit/squash, so fold them to -1. (addr nulls
    # stay 0 — only memory ops read the addr column.)
    col.dest_eff = [d if d else -1 for d in compiled.dest]
    col.taken = [_TAKEN_MAP[b] for b in compiled.taken]
    col.srcs_off = compiled.srcs_off
    col.srcs_flat = compiled.srcs_flat.tolist()
    for column, table in compiled.overflow.items():
        if column == "pc":
            for i, big in table.items():
                col.pc[int(i)] = big
        elif column == "addr":
            for i, big in table.items():
                col.addr[int(i)] = big
        elif column == "size":
            for i, big in table.items():
                col.size[int(i)] = big
        elif column == "value":
            for i, big in table.items():
                value[int(i)] = big
        elif column == "target":
            for i, big in table.items():
                target[int(i)] = big
        elif column == "dest":
            for i, big in table.items():
                col.dest_eff[int(i)] = big
        elif column == "srcs_flat":
            for i, big in table.items():
                col.srcs_flat[int(i)] = big
    col.value = value
    col.target = target
    col.is_load_b = col.opb.translate(
        _class_table(ops, lambda op: op is OpClass.LOAD)
    )
    col.is_store_b = col.opb.translate(
        _class_table(ops, lambda op: op is OpClass.STORE)
    )
    col.branch_b = col.opb.translate(
        _class_table(ops, lambda op: op.branch_class)
    )
    col.mem_b = col.opb.translate(
        _class_table(ops, lambda op: op.mem_class)
    )
    col.fp_b = col.opb.translate(
        _class_table(ops, lambda op: op.fp_class)
    )
    _attach_producers(col)
    return col


def _attach_dependences(
    col: _Columns,
    compiled: CompiledTrace,
    dep_info: Optional[Dict[int, DependenceInfo]],
) -> None:
    """Fill ``dep_of``/``stale_of`` (static: identical every dispatch)."""
    n = col.n
    dep_of = [-1] * n
    # Entry.stale_equal defaults to True; loads without a DependenceInfo
    # record keep that default in the reference core.
    stale_of = bytearray(b"\x01" * n)
    if dep_info is not None:
        for seq, info in dep_info.items():
            dep_of[seq] = info.store_seq
            if not info.stale_equal:
                stale_of[seq] = 0
    elif compiled.has_dependences:
        stale = compiled.dep_stale
        for i, (load, store) in enumerate(
            zip(compiled.dep_load, compiled.dep_store)
        ):
            dep_of[load] = store
            if not _mask_bit(stale, i):
                stale_of[load] = 0
    else:
        for seq, rec in compiled.compute_dependence_info().items():
            dep_of[seq] = rec.store_seq
            if not rec.stale_equal:
                stale_of[seq] = 0
    col.dep_of = dep_of
    col.stale_of = stale_of


class _VAddrSched:
    """Seq-keyed port of :class:`repro.memdep.addr_scheduler
    .AddressScheduler` (records are always current incarnations:
    squash truncates by seq before any re-dispatch)."""

    __slots__ = (
        "latency", "_unposted", "_seqs", "_addrs", "_sizes",
        "_visibles", "_blocks", "_max_visible",
    )

    def __init__(self, latency: int) -> None:
        self.latency = latency
        self._unposted: List[int] = []
        self._seqs: List[int] = []
        self._addrs: List[int] = []
        self._sizes: List[int] = []
        self._visibles: List[int] = []
        self._blocks: dict = {}
        self._max_visible = -1

    def post_address(
        self, seq: int, addr: int, size: int, cycle: int
    ) -> int:
        unposted = self._unposted
        lo, hi = 0, len(unposted)
        while lo < hi:
            mid = (lo + hi) // 2
            if unposted[mid] < seq:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(unposted) and unposted[lo] == seq:
            unposted.pop(lo)
        visible = cycle + self.latency
        seqs = self._seqs
        lo, hi = 0, len(seqs)
        while lo < hi:
            mid = (lo + hi) // 2
            if seqs[mid] < seq:
                lo = mid + 1
            else:
                hi = mid
        seqs.insert(lo, seq)
        self._addrs.insert(lo, addr)
        self._sizes.insert(lo, size)
        self._visibles.insert(lo, visible)
        blocks = self._blocks
        for block in range(addr >> 3, ((addr + size - 1) >> 3) + 1):
            blocks[block] = blocks.get(block, 0) + 1
        if visible > self._max_visible:
            self._max_visible = visible
        return visible

    def _uncover(self, index: int) -> None:
        addr = self._addrs[index]
        size = self._sizes[index]
        blocks = self._blocks
        for block in range(addr >> 3, ((addr + size - 1) >> 3) + 1):
            count = blocks[block] - 1
            if count:
                blocks[block] = count
            else:
                del blocks[block]

    def remove_store(self, seq: int) -> None:
        seqs = self._seqs
        index = bisect.bisect_left(seqs, seq)
        if index < len(seqs) and seqs[index] == seq:
            self._uncover(index)
            del seqs[index]
            del self._addrs[index]
            del self._sizes[index]
            del self._visibles[index]

    def squash(self, from_seq: int) -> None:
        cut = bisect.bisect_left(self._unposted, from_seq)
        del self._unposted[cut:]
        cut = bisect.bisect_left(self._seqs, from_seq)
        for index in range(cut, len(self._seqs)):
            self._uncover(index)
        del self._seqs[cut:]
        del self._addrs[cut:]
        del self._sizes[cut:]
        del self._visibles[cut:]

    def all_older_posted(self, seq: int, cycle: int) -> bool:
        if self._unposted and self._unposted[0] < seq:
            return False
        if self._max_visible <= cycle:
            return True
        visibles = self._visibles
        for i, rseq in enumerate(self._seqs):
            if rseq >= seq:
                break
            if visibles[i] > cycle:
                return False
        return True

    def youngest_older_match(
        self, seq: int, addr: int, size: int, cycle: int
    ) -> int:
        """Seq of the youngest older visible overlapping store, or -1."""
        blocks = self._blocks
        end = addr + size
        for block in range(addr >> 3, ((end - 1) >> 3) + 1):
            if block in blocks:
                break
        else:
            return -1
        seqs = self._seqs
        addrs = self._addrs
        sizes = self._sizes
        visibles = self._visibles
        for i in range(bisect.bisect_left(seqs, seq) - 1, -1, -1):
            if visibles[i] > cycle:
                continue
            raddr = addrs[i]
            if raddr < end and addr < raddr + sizes[i]:
                return seqs[i]
        return -1


class VectorProcessor:
    """One simulated machine bound to one (compiled) trace.

    Accepts a :class:`CompiledTrace` (fast path) or a materialized
    :class:`~repro.trace.events.Trace` (compiled first). ``run(plan)``
    returns the same bit-identical :class:`SimResult` as the reference
    :class:`Processor`.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        trace,
        dep_info: Optional[Dict[int, DependenceInfo]] = None,
        *,
        elide: Optional[bool] = None,
        record_elisions: bool = False,
        kernel_times: bool = False,
    ) -> None:
        if config.split.enabled:
            raise ValueError(
                "split-window configs run on "
                "repro.splitwindow.SplitWindowProcessor"
            )
        if config.observe:
            raise ValueError(
                "observability requires the reference backend"
            )
        self.config = config
        if not isinstance(trace, CompiledTrace):
            trace = compile_trace(trace)
        col = _columns_from_compiled(trace)
        _attach_dependences(col, trace, dep_info)
        self.col = col
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
        self.store_sets = None
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

        self._selective = memdep.recovery == "selective"
        # Latency by op *byte* (latency tables are config-bound, so this
        # is per-processor, not per-column-set).
        self.lat = [
            config.latencies.latency(op) for op in col.ops
        ]
        self._issue_width = config.window.issue_width
        self._fu_copies = config.window.fu_copies
        self._memory_ports = config.window.memory_ports
        self._scan_budget = config.window.issue_width * 3
        fetch_cfg = config.fetch
        self._f_width = fetch_cfg.width
        self._f_max_blocks = fetch_cfg.max_blocks_per_cycle
        self._f_depth = fetch_cfg.front_end_depth
        self._f_block_shift = config.icache.block_bytes.bit_length() - 1
        self._f_hit_latency = config.icache.hit_latency

        # Event-horizon elision: when a cycle provably schedules nothing,
        # the clock jumps straight to the next possible event instead of
        # walking one cycle at a time. The jump target is the same value
        # the reference core's ``_next_cycle`` computes, so the
        # simulated trajectory (and every counter) is identical either
        # way; ``REPRO_VECTOR_ELIDE=0`` forces the single-step walk so CI
        # can exercise both paths.
        if elide is None:
            from repro.core.backend import ELIDE_ENV

            elide = os.environ.get(ELIDE_ENV, "1") != "0"
        self._elide = bool(elide)
        self._record_elisions = bool(record_elisions)
        self.skipped_cycles = 0
        self.elided_ranges: List = []
        # Per-kernel wall-time accounting (``--kernel-times``): ns spent
        # in each phase of the cycle loop plus an invocation count, so a
        # perf postmortem reads straight out of ``extra`` instead of
        # cProfile archaeology. Off by default: the flag is checked once
        # per phase per active cycle (a single cheap truth test).
        self._kernel_times = bool(kernel_times)
        self.phase_ns: Dict[str, int] = {}
        self.phase_calls: Dict[str, int] = {}

        n = col.n
        # Per-seq dynamic state (reference Entry fields). Allocated once
        # for the whole trace; a dispatch resets the slots it uses.
        self.serial = [0] * n
        self.sq = bytearray(n)        # squashed (current incarnation)
        self.a_pend = [0] * n
        self.d_pend = [0] * n
        self.a_rdy = [0] * n
        self.d_rdy = [0] * n
        self.rp_ref = [0] * n         # incarnation captured at rp push
        self.issue = [-1] * n         # issue_cycle
        self.agen = [-1] * n          # agen_done
        self.memc = [-1] * n          # mem_issue_cycle
        self.comp = [-1] * n          # complete_cycle
        self.write = [-1] * n         # write_cycle
        self.execd = bytearray(n)     # executed
        self.in_rp = bytearray(n)     # in_ready_pool
        self.in_mp = bytearray(n)     # in_mem_pool
        self.spec = bytearray(n)      # speculative
        self.fwd = [-1] * n           # forwarded_from
        self.waiters = [None] * n     # [(waiter_seq, is_data, ref)]
        self.consumers = [None] * n if self.as_mode else None
        self.pred_dep = bytearray(n)
        self.barrier = bytearray(n)
        self.sync_syn = [-1] * n
        self.sync_ws = [-1] * n       # sync_wait_store seq
        self.sync_ws_ref = [0] * n    # ... captured incarnation
        self.fd_start = [-1] * n      # fd_wait_start
        self.fd_cls = bytearray(n)    # 0=None 1="false" 2="true"
        self.fd_res = [-1] * n        # fd_resolved_cycle

        # Fetch run table: ``_f_run[s]`` is the length of the maximal
        # run of non-branch instructions starting at ``s`` that share
        # s's icache block (0 when s itself is a branch). The fetch
        # loop bulk-appends whole runs instead of walking per-op.
        shift = self._f_block_shift
        pcs = col.pc
        br = col.branch_b
        runs = [0] * (n + 1)
        i = n - 1
        while i >= 0:
            if not br[i]:
                nxt = runs[i + 1]
                if nxt and (pcs[i + 1] >> shift) == (pcs[i] >> shift):
                    runs[i] = nxt + 1
                else:
                    runs[i] = 1
            i -= 1
        self._f_run = runs

        self.cycle = 0
        self._next_flush = memdep.flush_interval

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, plan: Optional[SamplingPlan] = None) -> SimResult:
        if plan is None:
            plan = make_sampling_plan(self.col.n)
        total = SimResult(
            config_label=self.config.label,
            benchmark=self.col.name,
            suite=self.col.suite,
        )
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
        self._snapshot_caches(total)
        # ``extra`` is excluded from golden fixtures and result-store
        # keys, so elision telemetry never perturbs parity.
        total.extra["skipped_cycles"] = self.skipped_cycles
        total.extra["elide"] = 1 if self._elide else 0
        if self._record_elisions:
            total.extra["elided_ranges"] = list(self.elided_ranges)
        if self._kernel_times:
            total.extra["vector_phase_ns"] = dict(
                sorted(self.phase_ns.items())
            )
            total.extra["vector_phase_calls"] = dict(
                sorted(self.phase_calls.items())
            )
        return total

    def _phase_add(self, name: str, ns: int, calls: int = 1) -> None:
        pns = self.phase_ns
        pns[name] = pns.get(name, 0) + ns
        calls_d = self.phase_calls
        calls_d[name] = calls_d.get(name, 0) + calls

    # ------------------------------------------------------------------
    # functional warm-up (sampling)
    # ------------------------------------------------------------------

    def _warm_segment(self, start: int, stop: int) -> None:
        if self._kernel_times:
            from time import perf_counter_ns

            t0 = perf_counter_ns()
            self._warm_segment_inner(start, stop)
            self._phase_add("warm", perf_counter_ns() - t0)
            return
        self._warm_segment_inner(start, stop)

    def _warm_segment_inner(self, start: int, stop: int) -> None:
        col = self.col
        hierarchy = self.hierarchy
        icache_touch = hierarchy.icache.touch
        dcache_touch = hierarchy.dcache.touch
        l2_touch = hierarchy.l2.touch
        predict = self.branch_unit.predict_and_train_raw
        pcs = col.pc
        addrs = col.addr
        opb = col.opb
        ops = col.ops
        branch_b = col.branch_b
        mem_b = col.mem_b
        taken = col.taken
        target = col.target
        block_shift = self.config.icache.block_bytes.bit_length() - 1
        last_block = -1
        for seq in range(start, stop):
            pc = pcs[seq]
            block = pc >> block_shift
            if block != last_block:
                icache_touch(pc)
                l2_touch(pc)
                last_block = block
            if branch_b[seq]:
                predict(pc, ops[opb[seq]], taken[seq], target[seq])
            elif mem_b[seq]:
                addr = addrs[seq]
                dcache_touch(addr)
                l2_touch(addr)
        self.cycle += max(1, (stop - start) // 2)

    # ------------------------------------------------------------------
    # timing simulation
    # ------------------------------------------------------------------

    def _run_segment(self, start: int, stop: int) -> SimResult:
        cfg = self.config
        col = self.col
        if not 0 <= start <= stop <= col.n:
            # Same contract (and message) as the reference TraceCursor.
            raise ValueError("cursor range out of bounds")
        stats = SimResult(
            config_label=cfg.label,
            benchmark=col.name,
            suite=col.suite,
        )
        self.stats = stats
        # window = contiguous seq range [w_head, w_head + w_count).
        # ``w_head`` starts at the segment base so the static-rename
        # liveness test (``prod_flat[k] >= w_head``) rejects producers
        # from earlier segments before the first dispatch.
        self.w_head = start
        self.w_count = 0
        self.w_size = cfg.window.size
        # fetch state
        self.f_pos = start
        self.f_stop = stop
        self.f_buffer = deque()       # (seq, dispatch_at)
        self.f_stalled = self.cycle
        self.f_wait = -1              # waiting_on_branch seq
        self.f_recent: dict = {}
        fetch_cfg = cfg.fetch
        self.f_cap = fetch_cfg.width * fetch_cfg.front_end_depth
        # Functional-unit accounting (FunctionalUnits inlined: four
        # counters reset at the top of every cycle).
        self.fu_issued = 0
        self.fu_int = 0
        self.fu_fp = 0
        self.fu_ports = 0
        # Ready pool: a plain int heap; the pushing incarnation is kept
        # in ``rp_ref`` instead of a tuple. Two records for one seq can
        # coexist after a squash + re-dispatch; the pop consumes exactly
        # one (the duplicate skips on ``in_rp``).
        self.rp: List = []
        self.load_items: List = []    # mem pool: (seq, push_serial, ref)
        self.load_dead = 0
        self.load_live: Optional[List[int]] = None
        self.swp_items: List = []
        self.swp_dead = 0
        self.swp_live: Optional[List[int]] = None
        self._mp_serial = 0
        self.store_buffer = StoreBuffer(cfg.window.size)
        self.unexec_stores = UnexecutedStoreTracker()
        self.barrier_stores = UnexecutedStoreTracker()
        self._syn: Dict[int, List] = {}   # synonym -> [(seq, ref)]
        self._det: Dict[int, List] = {}   # store_seq -> [(load, ref)]
        self.addr_sched = (
            _VAddrSched(cfg.memdep.addr_scheduler_latency)
            if self.as_mode else None
        )
        # Calendar event queue: a bucket per distinct fire time (dict
        # time -> FIFO list of ``(kind, seq, ref)``) plus a heap of the
        # distinct times. Every schedule is strictly future, so a
        # drained bucket can never recur and the heap sees one push per
        # bucket instead of one per event; FIFO order within a bucket
        # is exactly the reference core's event-serial tie-break.
        self._evq: Dict[int, List] = {}
        self._evt: List[int] = []
        # Next-cycle fast lane: events scheduled for ``cycle + 1`` (the
        # dominant case — single-cycle ALU/load latencies) skip the
        # bucket dict and heap entirely. The drain merges the lane into
        # its bucket once per active cycle, preserving schedule order
        # (bucketed events for the same time were scheduled earlier).
        self._nx: List = []
        self._nx_time = -1
        self._hint = -1
        # Memoized memory scan: ``mem_dirty`` means state relevant to the
        # memory-issue gates may have changed since the last no-progress
        # scan; ``mem_wake`` is that scan's min unblock time (-1: none).
        self.mem_dirty = True
        self.mem_wake = -1

        start_cycle = self.cycle
        branch_unit = self.branch_unit
        branch_stats_base = (
            branch_unit.predictions, branch_unit.mispredictions,
        )

        evq = self._evq
        evt = self._evt
        nx = self._nx
        rp = self.rp
        issue_memory = self._issue_memory
        fetch_tick = self._fetch_tick
        maybe_flush = self._maybe_flush_tables
        on_store_write = self._on_store_write
        mp_push = self._mp_push
        resume_after_branch = self._resume_after_branch
        schedule = self._schedule
        pol = self.policy
        load_hook = (
            self._on_load_dispatch_policy
            if pol in (
                SpeculationPolicy.SELECTIVE, SpeculationPolicy.SYNC,
                SpeculationPolicy.STORE_SETS,
            ) else None
        )
        store_hook = (
            self._on_store_dispatch_policy
            if pol in (
                SpeculationPolicy.STORE_BARRIER, SpeculationPolicy.SYNC,
                SpeculationPolicy.STORE_SETS,
            ) else None
        )
        us_dispatch = self.unexec_stores._seqs.append
        as_unposted = (
            self.addr_sched._unposted.append if self.as_mode else None
        )
        dep_of = col.dep_of
        do_store_nas = self._do_issue_store_nas
        do_store_as = self._do_issue_store_agen_as
        reset_entry = self._reset_entry
        heappush = heapq.heappush
        heappop = heapq.heappop
        insort = bisect.insort
        buffer = self.f_buffer
        write = self.write
        comp = self.comp
        serial = self.serial
        sq = self.sq
        in_rp = self.in_rp
        rp_ref = self.rp_ref
        a_pend = self.a_pend
        d_pend = self.d_pend
        a_rdy = self.a_rdy
        d_rdy = self.d_rdy
        spec = self.spec
        fd_cls = self.fd_cls
        fd_res = self.fd_res
        fd_start = self.fd_start
        sync_syn = self.sync_syn
        sync_ws = self.sync_ws
        sync_ws_ref = self.sync_ws_ref
        issue = self.issue
        agen = self.agen
        in_mp = self.in_mp
        lat = self.lat
        waiters = self.waiters
        execd = self.execd
        consumers = self.consumers
        addr_sched = self.addr_sched
        store_sets = self.store_sets
        det = self._det
        is_store_b = col.is_store_b
        is_load_b = col.is_load_b
        branch_b = col.branch_b
        fp_b = col.fp_b
        opb = col.opb
        deps = col.deps
        ev_ready = _EV_READY
        ev_complete = _EV_COMPLETE
        ev_write = _EV_WRITE
        issue_width = self._issue_width
        scan_budget = self._scan_budget
        fu_copies = self._fu_copies
        memory_ports = self._memory_ports
        w_size = self.w_size
        f_cap = self.f_cap
        f_stop = self.f_stop
        elide = self._elide
        as_mode = self.as_mode
        record = self.elided_ranges if self._record_elisions else None
        has_tables = (
            self.predictor is not None
            or self.mdpt is not None
            or self.store_sets is not None
        )
        cycle = self.cycle
        kt = self._kernel_times
        if kt:
            from time import perf_counter_ns as _pcns

            _pns = self.phase_ns
            _pcalls = self.phase_calls
            for _name in (
                "advance", "events", "commit", "mem_issue",
                "exec_issue", "dispatch", "fetch",
            ):
                _pns.setdefault(_name, 0)
                _pcalls.setdefault(_name, 0)
        # Commit-side counters accumulate in locals for the whole
        # segment and flush into ``stats`` once, after the loop.
        c_committed = 0
        c_loads = 0
        c_stores = 0
        c_branches = 0
        c_spec = 0
        c_fd_false = 0
        c_fd_lat = 0
        c_fd_true = 0

        while True:
            if (
                not buffer and self.f_pos >= f_stop
                and not self.w_count and not evq and not nx
            ):
                break
            # -- advance clock (the event horizon) ----------------------
            # The step/jump decision is fully state-driven: walk the
            # next cycle only when the ready pool holds candidates or
            # the memory scan memo is dirty; otherwise jump straight to
            # the earliest standing wake source (scan wake, events,
            # commit head, fetch buffer head, fetch resume). Unlike the
            # reference core — which walks one probe cycle after every
            # active one before its ``_next_cycle`` can jump — this
            # elides the probe too when nothing can interact there; the
            # landing cycle is the same either way, so the simulated
            # trajectory is identical (macro-stepping, see docs/PERF.md).
            if kt:
                _t = _pcns()
            if rp or self.mem_dirty:
                cycle += 1
            else:
                best = self._hint
                self._hint = -1
                when = self.mem_wake
                if when >= 0 and (best < 0 or when < best):
                    best = when
                if evt:
                    when = evt[0]
                    if best < 0 or when < best:
                        best = when
                if nx:
                    when = self._nx_time
                    if best < 0 or when < best:
                        best = when
                if self.w_count:
                    h = self.w_head
                    done = write[h] if is_store_b[h] else comp[h]
                    if done >= 0 and (best < 0 or done < best):
                        best = done
                if buffer:
                    when = buffer[0][1]
                    if best < 0 or when < best:
                        best = when
                if (
                    self.f_wait < 0
                    and self.f_pos < f_stop
                    and len(buffer) < f_cap
                ):
                    when = self.f_stalled
                    if best < 0 or when < best:
                        best = when
                if best < 0:
                    self.cycle = cycle
                    raise SimulationStuck(
                        f"no progress possible at cycle {cycle} "
                        f"(window={self.w_count}, "
                        f"loads={len(self.load_items) - self.load_dead}, "
                        f"writes={len(self.swp_items) - self.swp_dead})"
                    )
                nxt = cycle + 1
                if best > nxt and elide and (
                    not has_tables or self._next_flush > nxt
                ):
                    # Table-flush boundaries pin the walk: the reference
                    # flushes at the end of every cycle it walks, so a
                    # boundary on the probe cycle must be walked here too
                    # or the tables would be consulted pre-flush later.
                    self.skipped_cycles += best - nxt
                    if record is not None:
                        record.append((nxt, best))
                    cycle = best
                else:
                    cycle = nxt
            self.cycle = cycle
            if kt:
                _now = _pcns()
                _pns["advance"] += _now - _t
                _pcalls["advance"] += 1
                _t = _now
            # -- events (inlined _process_events) -----------------------
            if nx and self._nx_time <= cycle:
                # Fold the next-cycle lane into its bucket; bucketed
                # events for the same time were scheduled on earlier
                # cycles, so bucket-then-lane is schedule order.
                t = self._nx_time
                b = evq.get(t)
                if b is None:
                    evq[t] = nx
                    heappush(evt, t)
                else:
                    b.extend(nx)
                self._nx = nx = []
            if evt and evt[0] <= cycle:
                dirty = False
                while evt and evt[0] <= cycle:
                    for ev in evq.pop(heappop(evt)):
                        s = ev[1]
                        if ev[2] != serial[s] or sq[s]:
                            continue
                        kind = ev[0]
                        if kind == ev_ready:
                            if not in_rp[s]:
                                in_rp[s] = 1
                                rp_ref[s] = serial[s]
                                heappush(rp, s)
                        elif kind == ev_complete:
                            # Completion + wakeup walk (was _on_complete):
                            # drain every waiter of ``s`` in one pass.
                            done = comp[s]
                            if done > cycle:
                                # Pushed out (selective re-execution).
                                schedule(done, ev_complete, s)
                                continue
                            execd[s] = 1
                            wl = waiters[s]
                            if wl:
                                for wseq, is_data, wref in wl:
                                    if wref != serial[wseq] or sq[wseq]:
                                        continue
                                    if is_data:
                                        d_pend[wseq] -= 1
                                        if done > d_rdy[wseq]:
                                            d_rdy[wseq] = done
                                    else:
                                        a_pend[wseq] -= 1
                                        if done > a_rdy[wseq]:
                                            a_rdy[wseq] = done
                                    if issue[wseq] >= 0 or in_rp[wseq]:
                                        # Already issued/queued: only the
                                        # AS store data arrival matters.
                                        if (
                                            as_mode and is_store_b[wseq]
                                            and agen[wseq] >= 0
                                            and not d_pend[wseq]
                                            and not in_mp[wseq]
                                            and write[wseq] < 0
                                        ):
                                            if mp_push(
                                                self.swp_items, wseq
                                            ):
                                                self.swp_live = None
                                            dirty = True
                                        continue
                                    if is_store_b[wseq] and not as_mode:
                                        if a_pend[wseq] or d_pend[wseq]:
                                            continue
                                        ready_at = a_rdy[wseq]
                                        if d_rdy[wseq] > ready_at:
                                            ready_at = d_rdy[wseq]
                                    else:
                                        if a_pend[wseq]:
                                            continue
                                        ready_at = a_rdy[wseq]
                                    if ready_at <= cycle:
                                        in_rp[wseq] = 1
                                        rp_ref[wseq] = wref
                                        heappush(rp, wseq)
                                    elif ready_at == cycle + 1:
                                        self._nx_time = ready_at
                                        nx.append(
                                            (ev_ready, wseq, wref)
                                        )
                                    else:
                                        b = evq.get(ready_at)
                                        if b is None:
                                            evq[ready_at] = [
                                                (ev_ready, wseq, wref)
                                            ]
                                            heappush(evt, ready_at)
                                        else:
                                            b.append(
                                                (ev_ready, wseq, wref)
                                            )
                                if as_mode:
                                    cl = consumers[s]
                                    if cl:
                                        cl.extend(wl)
                                    else:
                                        consumers[s] = wl
                                waiters[s] = []
                            if branch_b[s]:
                                resume_after_branch(s, done)
                        elif kind == ev_write:
                            on_store_write(s)
                            dirty = True
                        else:  # _EV_POST
                            dirty = True
                if dirty:
                    # Only store writes, address posts and AS store-data
                    # pushes can move a memory gate; ALU/load completions
                    # wake through the ready pool.
                    self.mem_dirty = True
                if kt:
                    _now = _pcns()
                    _pns["events"] += _now - _t
                    _pcalls["events"] += 1
                    _t = _now
            # -- commit (inlined) ---------------------------------------
            if self.w_count:
                h = self.w_head
                done = write[h] if is_store_b[h] else comp[h]
                if 0 <= done <= cycle:
                    budget = issue_width
                    w_count = self.w_count
                    while True:
                        self.w_head = h + 1
                        w_count -= 1
                        budget -= 1
                        c_committed += 1
                        if is_load_b[h]:
                            c_loads += 1
                            if spec[h]:
                                c_spec += 1
                            cls = fd_cls[h]
                            if cls == 1:
                                c_fd_false += 1
                                if fd_res[h] >= 0:
                                    c_fd_lat += fd_res[h] - fd_start[h]
                            elif cls == 2:
                                c_fd_true += 1
                        elif is_store_b[h]:
                            c_stores += 1
                            det.pop(h, None)
                            syn = sync_syn[h]
                            if syn != -1:
                                producers = self._syn.get(syn)
                                if producers:
                                    rec = (h, serial[h])
                                    if rec in producers:
                                        producers.remove(rec)
                                        if not producers:
                                            del self._syn[syn]
                            if addr_sched is not None:
                                addr_sched.remove_store(h)
                            if store_sets is not None:
                                self._sset_store_retired(h)
                        elif branch_b[h]:
                            c_branches += 1
                        if not budget or not w_count:
                            break
                        h += 1
                        done = write[h] if is_store_b[h] else comp[h]
                        if done < 0 or done > cycle:
                            break
                    self.w_count = w_count
                    if as_mode:
                        # Retiring a store removes it from the address
                        # scheduler, which can open an AS load gate; no
                        # NAS gate reads anything commit touches.
                        self.mem_dirty = True
            if kt:
                _now = _pcns()
                _pns["commit"] += _now - _t
                _pcalls["commit"] += 1
                _t = _now
            self.fu_ports = 0
            if self.mem_dirty or 0 <= self.mem_wake <= cycle:
                issue_memory()
                if kt:
                    _now = _pcns()
                    _pns["mem_issue"] += _now - _t
                    _pcalls["mem_issue"] += 1
                    _t = _now
            # (A skipped scan needs no hint merge: ``mem_wake`` stands
            # as its own term in the advance-clock horizon above.)
            # -- issue (inlined _issue_exec) ----------------------------
            if rp:
                scans = scan_budget
                deferred = []
                ie_progress = False
                issued = 0
                fu_int = 0
                fu_fp = 0
                while issued < issue_width and scans:
                    scans -= 1
                    s = -1
                    while rp:
                        t = heappop(rp)
                        if rp_ref[t] != serial[t] or not in_rp[t]:
                            continue
                        in_rp[t] = 0
                        if sq[t]:
                            continue
                        s = t
                        break
                    if s < 0:
                        break
                    nas_store = is_store_b[s] and not as_mode
                    if nas_store:
                        if a_pend[s] or d_pend[s]:
                            continue
                        ready_at = a_rdy[s]
                        if d_rdy[s] > ready_at:
                            ready_at = d_rdy[s]
                    elif a_pend[s]:
                        continue
                    else:
                        ready_at = a_rdy[s]
                    if ready_at > cycle:
                        if ready_at == cycle + 1:
                            self._nx_time = ready_at
                            nx.append((ev_ready, s, serial[s]))
                        else:
                            b = evq.get(ready_at)
                            if b is None:
                                evq[ready_at] = [
                                    (ev_ready, s, serial[s])
                                ]
                                heappush(evt, ready_at)
                            else:
                                b.append((ev_ready, s, serial[s]))
                        continue
                    uses_fp = fp_b[s]
                    if (fu_fp if uses_fp else fu_int) >= fu_copies:
                        deferred.append(s)
                        continue
                    if nas_store:
                        ws = sync_ws[s]
                        if (
                            ws >= 0
                            and sync_ws_ref[s] == serial[ws]
                            and not sq[ws]
                            and issue[ws] < 0
                        ):
                            deferred.append(s)
                            continue
                        if self.fu_ports >= memory_ports:
                            deferred.append(s)
                            continue
                        issued += 1
                        if uses_fp:
                            fu_fp += 1
                        else:
                            fu_int += 1
                        self.fu_ports += 1
                        do_store_nas(s)
                    else:
                        issued += 1
                        if uses_fp:
                            fu_fp += 1
                        else:
                            fu_int += 1
                        if is_store_b[s]:
                            do_store_as(s)
                        elif is_load_b[s]:
                            issue[s] = cycle
                            done = cycle + 1
                            agen[s] = done
                            if not in_mp[s]:
                                in_mp[s] = 1
                                mps = self._mp_serial + 1
                                self._mp_serial = mps
                                li = self.load_items
                                if not li or s > li[-1][0]:
                                    li.append((s, mps, serial[s]))
                                else:
                                    insort(li, (s, mps, serial[s]))
                                self.load_live = None
                            best = self._hint
                            if best < 0 or done < best:
                                self._hint = done
                        else:
                            issue[s] = cycle
                            done = cycle + lat[opb[s]]
                            comp[s] = done
                            if done == cycle + 1:
                                self._nx_time = done
                                nx.append((ev_complete, s, serial[s]))
                            else:
                                b = evq.get(done)
                                if b is None:
                                    evq[done] = [
                                        (ev_complete, s, serial[s])
                                    ]
                                    heappush(evt, done)
                                else:
                                    b.append(
                                        (ev_complete, s, serial[s])
                                    )
                    ie_progress = True
                if deferred:
                    for s in deferred:
                        in_rp[s] = 1
                        rp_ref[s] = serial[s]
                        heappush(rp, s)
                    ie_progress = True
                if ie_progress:
                    self.mem_dirty = True
                if kt:
                    _now = _pcns()
                    _pns["exec_issue"] += _now - _t
                    _pcalls["exec_issue"] += 1
                    _t = _now
            # -- dispatch (inlined) -------------------------------------
            if (
                buffer and self.w_count < w_size
                and buffer[0][1] <= cycle
            ):
                budget = issue_width
                w_count = self.w_count
                while budget and w_count < w_size and buffer:
                    rec = buffer[0]
                    if rec[1] > cycle:
                        break
                    buffer.popleft()
                    s = rec[0]
                    ser = serial[s] + 1
                    serial[s] = ser
                    sq[s] = 0
                    a_rdy[s] = cycle
                    d_rdy[s] = cycle
                    if ser > 1:
                        reset_entry(s)
                    is_store = is_store_b[s]
                    ap = 0
                    dp = 0
                    w_head = self.w_head
                    for p, is_data in deps[s]:
                        if p < w_head:
                            continue
                        pdone = comp[p]
                        if pdone >= 0:
                            if is_data:
                                if pdone > d_rdy[s]:
                                    d_rdy[s] = pdone
                            elif pdone > a_rdy[s]:
                                a_rdy[s] = pdone
                        else:
                            wl = waiters[p]
                            if wl is None:
                                waiters[p] = [(s, is_data, ser)]
                            else:
                                wl.append((s, is_data, ser))
                            if is_data:
                                dp += 1
                            else:
                                ap += 1
                    a_pend[s] = ap
                    d_pend[s] = dp
                    if not w_count:
                        self.w_head = s
                    w_count += 1
                    self.w_count = w_count
                    budget -= 1
                    if is_load_b[s]:
                        # Dependence-detection record (was the common
                        # prefix of _on_load_dispatch).
                        ds = dep_of[s]
                        if ds >= 0:
                            rec = (s, ser)
                            dl = det.get(ds)
                            if dl is None:
                                det[ds] = [rec]
                            else:
                                dl.append(rec)
                        if load_hook is not None:
                            load_hook(s)
                    elif is_store:
                        # Stores dispatch in program order, so the
                        # tracker append needs no ordering check here.
                        us_dispatch(s)
                        if as_unposted is not None:
                            as_unposted(s)
                        if store_hook is not None:
                            store_hook(s)
                    # _maybe_ready for a fresh entry (issue < 0, not in
                    # the ready pool), inlined:
                    if is_store and not as_mode:
                        if ap or dp:
                            continue
                        ready_at = a_rdy[s]
                        if d_rdy[s] > ready_at:
                            ready_at = d_rdy[s]
                    else:
                        if ap:
                            continue
                        ready_at = a_rdy[s]
                    if ready_at <= cycle:
                        in_rp[s] = 1
                        rp_ref[s] = ser
                        heappush(rp, s)
                    elif ready_at == cycle + 1:
                        self._nx_time = ready_at
                        nx.append((ev_ready, s, ser))
                    else:
                        b = evq.get(ready_at)
                        if b is None:
                            evq[ready_at] = [(ev_ready, s, ser)]
                            heappush(evt, ready_at)
                        else:
                            b.append((ev_ready, s, ser))
                if kt:
                    _now = _pcns()
                    _pns["dispatch"] += _now - _t
                    _pcalls["dispatch"] += 1
                    _t = _now
            if (
                self.f_wait < 0
                and cycle >= self.f_stalled
                and self.f_pos < f_stop
                and len(buffer) < f_cap
            ):
                if kt:
                    _t = _pcns()
                fetch_tick(cycle)
                if kt:
                    _pns["fetch"] += _pcns() - _t
                    _pcalls["fetch"] += 1
            if has_tables and cycle >= self._next_flush:
                maybe_flush()

        stats.cycles = self.cycle - start_cycle
        stats.committed += c_committed
        stats.committed_loads += c_loads
        stats.committed_stores += c_stores
        stats.committed_branches += c_branches
        stats.speculative_loads += c_spec
        stats.false_dependence_loads += c_fd_false
        stats.false_dependence_latency += c_fd_lat
        stats.true_dependence_loads += c_fd_true
        stats.branch_predictions = (
            branch_unit.predictions - branch_stats_base[0]
        )
        stats.branch_mispredictions = (
            branch_unit.mispredictions - branch_stats_base[1]
        )
        stats.load_forwards = self.store_buffer.forwards
        return stats

    # -- clock ---------------------------------------------------------

    def _schedule(self, cycle: int, kind: int, seq: int) -> None:
        if cycle == self.cycle + 1:
            self._nx_time = cycle
            self._nx.append((kind, seq, self.serial[seq]))
            return
        evq = self._evq
        b = evq.get(cycle)
        if b is None:
            evq[cycle] = [(kind, seq, self.serial[seq])]
            heapq.heappush(self._evt, cycle)
        else:
            b.append((kind, seq, self.serial[seq]))

    # -- events --------------------------------------------------------

    def _on_store_write(self, seq: int) -> None:
        wc = self.write[seq]
        if wc >= 0 and wc > self.cycle:
            self._schedule(wc, _EV_WRITE, seq)
            return
        cycle = wc
        self.execd[seq] = 1
        self.hierarchy.store(self.col.addr[seq], cycle)

        records = self._det.get(seq)
        if not records:
            return
        serial = self.serial
        sq = self.sq
        memc = self.memc
        fwd = self.fwd
        violators = None
        for ls, ref in records:
            if ref != serial[ls] or sq[ls]:
                continue
            mc = memc[ls]
            if mc < 0 or mc > cycle:
                continue
            if fwd[ls] == seq:
                continue
            if violators is None:
                violators = [ls]
            else:
                violators.append(ls)
        if violators is None:
            return
        if self.as_mode:
            stale_of = self.col.stale_of
            violators = [
                ls for ls in violators
                if not stale_of[ls]
                and self._value_propagated(ls, cycle)
            ]
        if violators:
            oldest = min(violators)
            if self._selective:
                self._selective_reexecute(oldest, seq, cycle)
            else:
                self._squash_for_violation(oldest, seq, cycle)

    def _value_propagated(self, ls: int, write_cycle: int) -> bool:
        consumers = self.consumers[ls]
        waiters = self.waiters[ls]
        if consumers and waiters:
            combined = consumers + waiters
        elif consumers:
            combined = consumers
        elif waiters:
            combined = waiters
        else:
            return False
        serial = self.serial
        sq = self.sq
        issue = self.issue
        propagated = False
        for wseq, _, wref in combined:
            if wref != serial[wseq] or sq[wseq]:
                continue
            ic = issue[wseq]
            if ic >= 0 and ic <= write_cycle:
                propagated = True
                break
        if not propagated:
            d_rdy = self.d_rdy
            a_rdy = self.a_rdy
            fix = write_cycle + 1
            for wseq, is_data, wref in combined:
                if (
                    wref != serial[wseq] or sq[wseq]
                    or issue[wseq] >= 0
                ):
                    continue
                if is_data:
                    if fix > d_rdy[wseq]:
                        d_rdy[wseq] = fix
                elif fix > a_rdy[wseq]:
                    a_rdy[wseq] = fix
        return propagated

    def _store_buffer_insert(self, seq: int, data_ready: int) -> None:
        buffer = self.store_buffer
        if buffer.full:
            head_seq = self.w_head if self.w_count else seq
            if not buffer.evict_oldest_before(head_seq):
                raise SimulationStuck("store buffer wedged")
        col = self.col
        wc = self.write[seq]
        buffer.insert(StoreBufferEntry(
            seq=seq,
            addr=col.addr[seq],
            size=col.size[seq],
            value=col.value[seq],
            data_ready_cycle=data_ready,
            drain_cycle=wc if wc >= 0 else None,
        ))

    # -- squash --------------------------------------------------------

    def _window_squash_from(self, seq: int) -> int:
        """Flag entries with seq >= *seq* squashed; returns the count.

        No rename-map repair is needed: producers come from the static
        ``prod_flat`` column, whose liveness test (``p >= w_head``) is
        unaffected by squashing the window tail.
        """
        tail = self.w_head + self.w_count
        self.sq[seq:tail] = b"\x01" * (tail - seq)
        self.w_count = seq - self.w_head
        return tail - seq

    def _syn_squash(self, from_seq: int) -> None:
        syn = self._syn
        for key in list(syn):
            kept = [rec for rec in syn[key] if rec[0] < from_seq]
            if kept:
                syn[key] = kept
            else:
                del syn[key]

    def _det_squash(self, from_seq: int) -> None:
        det = self._det
        for key in list(det):
            kept = [rec for rec in det[key] if rec[0] < from_seq]
            if kept:
                det[key] = kept
            else:
                del det[key]

    def _sset_squash(self, from_seq: int) -> None:
        lfst = self.store_sets._lfst
        serial = self.serial
        sq = self.sq
        for slot, handle in enumerate(lfst):
            if handle is None:
                continue
            s, _, ref = handle
            if ref != serial[s] or sq[s] or s >= from_seq:
                lfst[slot] = None

    def _squash_for_violation(
        self, ls: int, ss: int, cycle: int
    ) -> None:
        stats = self.stats
        stats.misspeculations += 1
        count = self._window_squash_from(ls)
        stats.squashed_instructions += count
        self.load_live = None
        self.swp_live = None
        self.unexec_stores.squash(ls)
        self.barrier_stores.squash(ls)
        self._syn_squash(ls)
        self._det_squash(ls)
        self.store_buffer.squash_younger(ls)
        if self.addr_sched is not None:
            self.addr_sched.squash(ls)
        if self.store_sets is not None:
            self._sset_squash(ls)
        resume = cycle + self.config.memdep.squash_refill_penalty
        self._fetch_squash(ls, resume)

        pcs = self.col.pc
        if self.policy is SpeculationPolicy.SELECTIVE:
            self.predictor.record_misspeculation(pcs[ls])
        elif self.policy is SpeculationPolicy.STORE_BARRIER:
            self.predictor.record_misspeculation(pcs[ss])
        elif self.policy is SpeculationPolicy.SYNC:
            self.mdpt.record_violation(pcs[ls], pcs[ss])
        elif self.policy is SpeculationPolicy.STORE_SETS:
            self.store_sets.record_violation(pcs[ls], pcs[ss])

    def _selective_reexecute(
        self, ls: int, ss: int, cycle: int
    ) -> None:
        stats = self.stats
        stats.misspeculations += 1
        col = self.col
        lat = self.lat
        opb = col.opb
        is_load_b = col.is_load_b
        is_store_b = col.is_store_b
        comp = self.comp
        write = self.write
        issue = self.issue
        srcs_off = col.srcs_off
        prod_flat = col.prod_flat
        new_complete: Dict[int, int] = {}
        reexecuted = 0

        self.fwd[ls] = ss
        old = comp[ls]
        corrected = max(old if old >= 0 else 0, cycle + 1)
        if corrected != old:
            comp[ls] = corrected
            self._schedule(corrected, _EV_COMPLETE, ls)
        new_complete[ls] = corrected

        a_rdy = self.a_rdy
        d_rdy = self.d_rdy
        sq = self.sq
        w_head = self.w_head
        for s in range(w_head, w_head + self.w_count):
            if s <= ls or sq[s]:
                continue
            bump = 0
            for k in range(srcs_off[s], srcs_off[s + 1]):
                p = prod_flat[k]
                # Live producers only; committed ones cannot be in
                # ``new_complete`` (its keys are window entries > ls).
                if p >= w_head:
                    when = new_complete.get(p)
                    if when is not None and when > bump:
                        bump = when
            if not bump or issue[s] < 0:
                if bump:
                    if bump > a_rdy[s]:
                        a_rdy[s] = bump
                    if bump > d_rdy[s]:
                        d_rdy[s] = bump
                continue
            latency = lat[opb[s]]
            if is_load_b[s]:
                latency += 2
            corrected = bump + latency
            old = write[s] if is_store_b[s] else comp[s]
            if old >= 0 and corrected > old:
                reexecuted += 1
                if is_store_b[s]:
                    write[s] = corrected
                    comp[s] = corrected
                    self._schedule(corrected, _EV_WRITE, s)
                else:
                    comp[s] = corrected
                    self._schedule(corrected, _EV_COMPLETE, s)
                new_complete[s] = corrected
        stats.squashed_instructions += reexecuted

    # -- commit --------------------------------------------------------

    def _sset_store_retired(self, seq: int) -> None:
        predictor = self.store_sets
        ssid = predictor.ssid_of(self.col.pc[seq])
        if ssid is None:
            return
        slot = predictor._ssid_slot(ssid)
        handle = predictor._lfst[slot]
        if (
            handle is not None
            and handle[0] == seq
            and handle[2] == self.serial[seq]
        ):
            predictor._lfst[slot] = None

    # -- dispatch ------------------------------------------------------

    def _reset_entry(self, s: int) -> None:
        """Re-dispatch after a squash: restore Entry defaults."""
        self.a_pend[s] = 0
        self.d_pend[s] = 0
        self.issue[s] = -1
        self.agen[s] = -1
        self.memc[s] = -1
        self.comp[s] = -1
        self.write[s] = -1
        self.execd[s] = 0
        self.in_rp[s] = 0
        self.in_mp[s] = 0
        self.spec[s] = 0
        self.fwd[s] = -1
        self.waiters[s] = None
        if self.consumers is not None:
            self.consumers[s] = None
        self.pred_dep[s] = 0
        self.barrier[s] = 0
        self.sync_syn[s] = -1
        self.sync_ws[s] = -1
        self.fd_start[s] = -1
        self.fd_cls[s] = 0
        self.fd_res[s] = -1

    def _on_load_dispatch_policy(self, s: int) -> None:
        # Policy-specific load-dispatch work; the dependence-detection
        # record is inlined at the dispatch site (it applies to every
        # policy), so only SELECTIVE/SYNC/STORE_SETS land here.
        policy = self.policy
        if policy is SpeculationPolicy.SELECTIVE:
            if self.predictor.predicts_dependence(self.col.pc[s]):
                self.pred_dep[s] = 1
        elif policy is SpeculationPolicy.SYNC:
            prediction = self.mdpt.predict_load(self.col.pc[s])
            if prediction is not None:
                synonym = prediction.synonym
                self.sync_syn[s] = synonym
                best = -1
                best_ref = 0
                serial = self.serial
                sq = self.sq
                for ws, ref in self._syn.get(synonym, ()):
                    if ref != serial[ws] or sq[ws] or ws >= s:
                        continue
                    if ws > best:
                        best = ws
                        best_ref = ref
                if best >= 0:
                    self.sync_ws[s] = best
                    self.sync_ws_ref[s] = best_ref
        elif policy is SpeculationPolicy.STORE_SETS:
            predictor = self.store_sets
            ssid = predictor.ssid_of(self.col.pc[s])
            if ssid is not None:
                handle = predictor._lfst[predictor._ssid_slot(ssid)]
                if handle is not None:
                    ws, _, ref = handle
                    if (
                        ref == self.serial[ws] and not self.sq[ws]
                        and ws < s
                    ):
                        self.sync_ws[s] = ws
                        self.sync_ws_ref[s] = ref

    def _on_store_dispatch_policy(self, s: int) -> None:
        # Policy-specific store-dispatch work; the unexecuted-store and
        # address-scheduler bookkeeping is inlined at the dispatch site.
        policy = self.policy
        if policy is SpeculationPolicy.STORE_BARRIER:
            if self.predictor.predicts_dependence(self.col.pc[s]):
                self.barrier[s] = 1
                self.barrier_stores.on_dispatch(s)
        elif policy is SpeculationPolicy.SYNC:
            prediction = self.mdpt.predict_store(self.col.pc[s])
            if prediction is not None:
                synonym = prediction.synonym
                self.sync_syn[s] = synonym
                rec = (s, self.serial[s])
                producers = self._syn.get(synonym)
                if producers is None:
                    self._syn[synonym] = [rec]
                else:
                    producers.append(rec)
        elif policy is SpeculationPolicy.STORE_SETS:
            predictor = self.store_sets
            ssid = predictor.ssid_of(self.col.pc[s])
            if ssid is not None:
                slot = predictor._ssid_slot(ssid)
                previous = predictor._lfst[slot]
                predictor._lfst[slot] = (s, 0, self.serial[s])
                if previous is not None:
                    ws, _, ref = previous
                    if ref == self.serial[ws] and not self.sq[ws]:
                        self.sync_ws[s] = ws
                        self.sync_ws_ref[s] = ref

    # -- readiness -----------------------------------------------------

    def _mp_push(self, items: List, s: int) -> bool:
        """Push *s* onto a mem pool. Returns True if pushed."""
        if self.in_mp[s] or self.sq[s]:
            return False
        self.in_mp[s] = 1
        self._mp_serial += 1
        item = (s, self._mp_serial, self.serial[s])
        if not items or s > items[-1][0]:
            items.append(item)
        else:
            bisect.insort(items, item)
        return True

    def _mp_live(self, which: str) -> List[int]:
        """Live seqs, oldest-first, pruning dead records (MemPool
        ``live_entries`` port)."""
        if which == "load":
            live = self.load_live
            items = self.load_items
        else:
            live = self.swp_live
            items = self.swp_items
        if live is not None:
            return live
        if not items:
            live = []
        else:
            serial = self.serial
            sq = self.sq
            in_mp = self.in_mp
            live = [
                s for s, _, ref in items
                if ref == serial[s] and in_mp[s] and not sq[s]
            ]
            if len(live) != len(items):
                items = [(s, 0, serial[s]) for s in live]
                if which == "load":
                    self.load_items = items
                    self.load_dead = 0
                else:
                    self.swp_items = items
                    self.swp_dead = 0
        if which == "load":
            self.load_live = live
        else:
            self.swp_live = live
        return live

    # -- issue ---------------------------------------------------------

    def _do_issue_store_nas(self, s: int) -> None:
        cycle = self.cycle
        self.issue[s] = cycle
        self.agen[s] = cycle + 1
        wc = cycle + 2
        self.write[s] = wc
        self.comp[s] = wc
        self.unexec_stores.on_execute(s)
        if self.barrier[s]:
            self.barrier_stores.on_execute(s)
        self._store_buffer_insert(s, data_ready=cycle + 1)
        self._schedule(wc, _EV_WRITE, s)

    def _do_issue_store_agen_as(self, s: int) -> None:
        cycle = self.cycle
        self.issue[s] = cycle
        agen = cycle + 1
        self.agen[s] = agen
        col = self.col
        visible = self.addr_sched.post_address(
            s, col.addr[s], col.size[s], agen
        )
        self._schedule(visible, _EV_POST, s)
        if not self.d_pend[s]:
            if self._mp_push(self.swp_items, s):
                self.swp_live = None

    # -- memory stage --------------------------------------------------

    def _issue_memory(self) -> None:
        loads = self._mp_live("load")
        if self.as_mode:
            writes = self._mp_live("swp")
            if writes:
                if loads:
                    candidates = sorted(loads + writes)
                else:
                    candidates = writes
            else:
                candidates = loads
        else:
            candidates = loads
        if not candidates:
            self.mem_wake = -1
            self.mem_dirty = False
            return
        cycle = self.cycle
        kind = self._gate_kind
        # ``wake`` collects only this scan's own unblock times; it is
        # kept as the standing wake time for the advance-clock horizon
        # in the main loop.
        wake = -1
        progress = False
        blocked_tail = -1
        ports_left = self._memory_ports - self.fu_ports
        if kind == _GATE_ALL_STORES or kind == _GATE_PREDICTED:
            blocked_from = self.unexec_stores.oldest()
        elif kind == _GATE_BARRIER:
            blocked_from = self.barrier_stores.oldest()
        else:
            blocked_from = None
        col = self.col
        is_store_b = col.is_store_b
        col_addr = col.addr
        col_size = col.size
        agen = self.agen
        write = self.write
        comp = self.comp
        d_rdy = self.d_rdy
        in_mp = self.in_mp
        memc = self.memc
        spec = self.spec
        fwd = self.fwd
        serial = self.serial
        fd_start = self.fd_start
        fd_res = self.fd_res
        note_fd_wait = self._note_fd_wait
        store_buffer = self.store_buffer
        sb_blocks = store_buffer._blocks
        sb_search = store_buffer.search
        hier_load = self.hierarchy.load
        unexec_seqs = self.unexec_stores._seqs
        evq = self._evq
        evt = self._evt
        nx = self._nx
        ncy = cycle + 1
        heappush = heapq.heappush
        ev_complete = _EV_COMPLETE
        ev_write = _EV_WRITE
        gate_open = kind == _GATE_OPEN
        gate_as = kind == _GATE_AS
        if gate_as:
            sched = self.addr_sched
            as_lat = sched.latency
            as_no = self.policy is SpeculationPolicy.NO
            yom = sched.youngest_older_match
            aop = sched.all_older_posted
        for s in candidates:
            if not ports_left:
                progress = True
                break
            if is_store_b[s]:
                ready = d_rdy[s]
                a = agen[s]
                if a > ready:
                    ready = a
                if ready > cycle:
                    if wake < 0 or ready < wake:
                        wake = ready
                    continue
                ports_left -= 1
                if in_mp[s]:
                    in_mp[s] = 0
                    self.swp_dead += 1
                    self.swp_live = None
                wc = cycle + 1
                write[s] = wc
                comp[s] = wc
                self.unexec_stores.on_execute(s)
                if self.barrier[s]:
                    self.barrier_stores.on_execute(s)
                self._store_buffer_insert(s, data_ready=cycle + 1)
                self._nx_time = wc
                nx.append((ev_write, s, serial[s]))
                progress = True
                continue
            # -- loads: the policy gate, inlined -----------------------
            a = agen[s]
            if a < 0 or a > cycle:
                if a >= 0 and (wake < 0 or a < wake):
                    wake = a
                continue
            if gate_open:
                pass
            elif gate_as:
                # _load_gate_as, inlined.
                search_from = a + as_lat
                if cycle < search_from:
                    if wake < 0 or search_from < wake:
                        wake = search_from
                    continue
                if as_no and not aop(s, cycle):
                    note_fd_wait(s)
                    continue
                m = yom(s, col_addr[s], col_size[s], cycle)
                if m >= 0:
                    wc = write[m]
                    if wc < 0:
                        continue
                    if cycle < wc:
                        if wake < 0 or wc < wake:
                            wake = wc
                        continue
            elif kind == _GATE_ALL_STORES:
                if blocked_from is not None and blocked_from < s:
                    # The gate is global: every younger candidate is
                    # blocked by the same oldest store. Finish them in
                    # the cheap tail pass below.
                    blocked_tail = s
                    break
            elif kind == _GATE_PREDICTED:
                if (
                    self.pred_dep[s]
                    and blocked_from is not None
                    and blocked_from < s
                ):
                    if fd_start[s] < 0:
                        note_fd_wait(s)
                    continue
            elif kind == _GATE_BARRIER:
                if blocked_from is not None and blocked_from < s:
                    blocked_tail = s
                    break
            elif kind == _GATE_SYNC:
                ws = self.sync_ws[s]
                if (
                    ws >= 0
                    and self.sync_ws_ref[s] == serial[ws]
                    and not self.sq[ws]
                    and not self.execd[ws]
                ):
                    issued = self.issue[ws]
                    if issued < 0:
                        continue
                    if cycle < issued + 1:
                        if wake < 0 or issued + 1 < wake:
                            wake = issued + 1
                        continue
            else:  # _GATE_ORACLE
                # ``ds`` is older than the live load s, so it is in the
                # window exactly when it has not committed yet.
                ds = col.dep_of[s]
                if ds >= self.w_head and not self.execd[ds]:
                    issued = self.issue[ds]
                    if issued < 0:
                        if fd_start[s] < 0:
                            note_fd_wait(s)
                        continue
                    if cycle < issued + 1:
                        if wake < 0 or issued + 1 < wake:
                            wake = issued + 1
                        continue
            if fd_start[s] >= 0 and fd_res[s] < 0:
                fd_res[s] = cycle
            ports_left -= 1
            if in_mp[s]:
                in_mp[s] = 0
                self.load_dead += 1
                self.load_live = None
            # -- _access_memory, inlined ------------------------------
            memc[s] = cycle
            if unexec_seqs and unexec_seqs[0] < s:
                spec[s] = 1
            addr = col_addr[s]
            size = col_size[s]
            # Block-granular prefilter (the same one ``search`` runs):
            # most loads overlap no buffered store — answer those
            # without the call.
            blk = addr >> 3
            end_blk = (addr + size - 1) >> 3
            if blk == end_blk:
                overlap = blk in sb_blocks
            else:
                overlap = False
                while blk <= end_blk:
                    if blk in sb_blocks:
                        overlap = True
                        break
                    blk += 1
            buffered = None
            if overlap:
                buffered, full = sb_search(s, addr, size)
            if buffered is None:
                complete = hier_load(addr, cycle)
            elif full:
                drc = buffered.data_ready_cycle + 1
                complete = drc if drc > cycle + 1 else cycle + 1
                fwd[s] = buffered.seq
            else:
                dstart = buffered.data_ready_cycle
                if dstart < cycle:
                    dstart = cycle
                complete = hier_load(addr, dstart)
            comp[s] = complete
            if complete == ncy:
                self._nx_time = complete
                nx.append((ev_complete, s, serial[s]))
            else:
                b = evq.get(complete)
                if b is None:
                    evq[complete] = [(ev_complete, s, serial[s])]
                    heappush(evt, complete)
                else:
                    b.append((ev_complete, s, serial[s]))
            progress = True
        if blocked_tail >= 0:
            # Tail of an ALL_STORES/BARRIER scan: the gate blocks every
            # candidate from ``blocked_tail`` on (candidates ascend and
            # the blocking store is global), so reproduce exactly what
            # the reference does for each — merge a pending agen time
            # into the wake hint, otherwise note the false-dependence
            # wait (``fd_start`` timing feeds the latency stats). Ports
            # are untouched here, so no port-exhaustion break can occur
            # mid-tail.
            lo = bisect.bisect_left(candidates, blocked_tail)
            for t in candidates[lo:]:
                a = agen[t]
                if a < 0 or a > cycle:
                    if a >= 0 and (wake < 0 or a < wake):
                        wake = a
                elif fd_start[t] < 0:
                    note_fd_wait(t)
        self.fu_ports = self._memory_ports - ports_left
        # No hint merge: ``mem_wake`` is a standing advance-clock term.
        self.mem_wake = wake
        if progress:
            self.mem_dirty = True
        else:
            self.mem_dirty = False

    def _note_fd_wait(self, s: int) -> None:
        if self.fd_start[s] >= 0:
            return
        self.fd_start[s] = self.cycle
        ds = self.col.dep_of[s]
        # Older dep of a live load: in the window iff not yet committed.
        if ds >= self.w_head and not self.execd[ds]:
            self.fd_cls[s] = 2
        else:
            self.fd_cls[s] = 1

    # -- fetch ---------------------------------------------------------

    def _fetch_tick(self, cycle: int) -> int:
        if cycle < self.f_stalled or self.f_wait >= 0:
            return 0
        buffer = self.f_buffer
        buffer_cap = self.f_cap
        if len(buffer) >= buffer_cap:
            return 0
        fetched = 0
        blocks_used = 0
        current_block = None
        width = self._f_width
        max_blocks = self._f_max_blocks
        block_shift = self._f_block_shift
        recent_blocks = self.f_recent
        recent_cap = 4 * max_blocks
        hit_by = cycle + self._f_hit_latency
        dispatch_at = cycle + self._f_depth
        col = self.col
        pcs = col.pc
        branch_b = col.branch_b
        opb = col.opb
        ops = col.ops
        taken = col.taken
        target = col.target
        predict = self.branch_unit.predict_and_train_raw
        fetch_block = self.hierarchy.fetch
        pos = self.f_pos
        stop = self.f_stop
        runs = self._f_run
        while (
            fetched < width
            and len(buffer) < buffer_cap
            and pos < stop
        ):
            pc = pcs[pos]
            block = pc >> block_shift
            if block != current_block:
                if blocks_used >= max_blocks:
                    break
                blocks_used += 1
                current_block = block
                available = recent_blocks.get(block)
                if available is None:
                    available = fetch_block(pc, cycle)
                    recent_blocks[block] = available
                    if len(recent_blocks) > recent_cap:
                        oldest = next(iter(recent_blocks))
                        del recent_blocks[oldest]
                if available > hit_by:
                    self.f_stalled = available
                    break
            k = runs[pos]
            if k > 1:
                # Bulk-append the same-block non-branch run, clipped to
                # the width / buffer / segment limits.
                lim = width - fetched
                room = buffer_cap - len(buffer)
                if room < lim:
                    lim = room
                room = stop - pos
                if room < lim:
                    lim = room
                if k > lim:
                    k = lim
                if k > 1:
                    end = pos + k
                    buffer.extend(
                        zip(range(pos, end), _irepeat(dispatch_at))
                    )
                    pos = end
                    fetched += k
                    continue
            s = pos
            pos += 1
            buffer.append((s, dispatch_at))
            fetched += 1
            if branch_b[s]:
                correct = predict(
                    pc, ops[opb[s]], taken[s], target[s]
                )[2]
                if not correct:
                    self.f_wait = s
                    break
                if taken[s]:
                    current_block = None
        self.f_pos = pos
        return fetched

    def _fetch_squash(self, seq: int, resume_cycle: int) -> None:
        buffer = self.f_buffer
        while buffer and buffer[-1][0] >= seq:
            buffer.pop()
        if self.f_pos > seq:
            self.f_pos = seq
        if self.f_wait >= 0 and self.f_wait >= seq:
            self.f_wait = -1
        if resume_cycle > self.f_stalled:
            self.f_stalled = resume_cycle

    def _resume_after_branch(self, seq: int, cycle: int) -> None:
        if self.f_wait == seq:
            self.f_wait = -1
            resume = cycle + self.config.branch_redirect_penalty
            if resume > self.f_stalled:
                self.f_stalled = resume

    # -- periodic table flushes ----------------------------------------

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

    # -- cache stat snapshots ------------------------------------------

    def _snapshot_caches(self, stats: SimResult) -> None:
        stats.dcache_accesses = self.hierarchy.dcache.accesses
        stats.dcache_misses = self.hierarchy.dcache.misses
        stats.icache_accesses = self.hierarchy.icache.accesses
        stats.icache_misses = self.hierarchy.icache.misses
        stats.l2_accesses = self.hierarchy.l2.accesses
        stats.l2_misses = self.hierarchy.l2.misses




