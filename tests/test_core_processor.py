"""Integration tests for the continuous-window processor core."""

import gc

import pytest

from repro.config import (
    continuous_window_128,
    continuous_window_64,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.processor import Processor, simulate
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.dependences import compute_dependence_info
from repro.trace.events import Trace
from repro.trace.sampling import SamplingPlan, Segment
from repro.vm.interpreter import run_program
from repro.workloads.catalog import kernel_trace

NAS = SchedulingModel.NAS
AS = SchedulingModel.AS


def _run(trace, sched=NAS, policy=SpeculationPolicy.NO, **kwargs):
    return simulate(
        continuous_window_128(sched, policy, **kwargs), trace
    )


def test_all_instructions_commit(memcopy_trace):
    result = _run(memcopy_trace)
    assert result.committed == len(memcopy_trace)
    summary = memcopy_trace.summary()
    assert result.committed_loads == summary.loads
    assert result.committed_stores == summary.stores


def test_independent_alu_loop_ipc_reasonable():
    body = "\n".join(f"addi r{1 + i}, r0, {i}" for i in range(6))
    trace = run_program(f"""
        li r10, 0
        li r11, 200
    loop:
        {body}
        addi r10, r10, 1
        blt r10, r11, loop
        halt
    """)
    result = _run(trace)
    # Independent single-cycle ops in a warm loop: multiple IPC.
    assert result.ipc > 2.5


def test_serial_chain_bounds_ipc():
    serial = "\n".join("addi r1, r1, 1" for _ in range(6))
    trace = run_program(f"""
        li r1, 0
        li r10, 0
        li r11, 200
    loop:
        {serial}
        addi r10, r10, 1
        blt r10, r11, loop
        halt
    """)
    result = _run(trace)
    # 6 of every 8 instructions form a serial 1-cycle chain: IPC is
    # pinned near 8/6.
    assert 0.8 < result.ipc < 1.7


def test_policy_performance_ordering(recurrence_trace):
    """NO <= SYNC <= ORACLE-ish orderings hold on a dependence-heavy
    kernel; naive speculation collapses under constant violations."""
    ipc = {
        policy: _run(recurrence_trace, NAS, policy).ipc
        for policy in (
            SpeculationPolicy.NO,
            SpeculationPolicy.NAIVE,
            SpeculationPolicy.SYNC,
            SpeculationPolicy.ORACLE,
        )
    }
    assert ipc[SpeculationPolicy.NAIVE] < ipc[SpeculationPolicy.NO]
    assert ipc[SpeculationPolicy.SYNC] >= 0.95 * ipc[SpeculationPolicy.NO]
    assert ipc[SpeculationPolicy.ORACLE] >= ipc[SpeculationPolicy.NO] * 0.99


def test_oracle_beats_no_when_parallelism_exists(memcopy_trace):
    no = _run(memcopy_trace, NAS, SpeculationPolicy.NO)
    oracle = _run(memcopy_trace, NAS, SpeculationPolicy.ORACLE)
    assert oracle.ipc > no.ipc * 1.3
    assert oracle.misspeculations == 0


def test_naive_never_misspeculates_without_dependences(memcopy_trace):
    result = _run(memcopy_trace, NAS, SpeculationPolicy.NAIVE)
    assert result.misspeculations == 0
    assert result.ipc > _run(memcopy_trace).ipc


def test_naive_misspeculates_on_recurrence(recurrence_trace):
    result = _run(recurrence_trace, NAS, SpeculationPolicy.NAIVE)
    assert result.misspeculation_rate > 0.2
    assert result.squashed_instructions > 0


def test_sync_eliminates_misspeculations(recurrence_trace):
    nav = _run(recurrence_trace, NAS, SpeculationPolicy.NAIVE)
    sync = _run(recurrence_trace, NAS, SpeculationPolicy.SYNC)
    assert sync.misspeculation_rate < nav.misspeculation_rate / 10
    assert sync.ipc > nav.ipc


def test_selective_learns_to_wait(recurrence_trace):
    sel = _run(recurrence_trace, NAS, SpeculationPolicy.SELECTIVE)
    # A few training miss-speculations, then the load stops speculating.
    assert sel.misspeculations <= 10
    nav = _run(recurrence_trace, NAS, SpeculationPolicy.NAIVE)
    assert sel.ipc > nav.ipc


def test_store_barrier_learns(recurrence_trace):
    store = _run(recurrence_trace, NAS, SpeculationPolicy.STORE_BARRIER)
    assert store.misspeculations <= 10


def test_as_scheduler_avoids_misspeculation(recurrence_trace):
    for policy in (SpeculationPolicy.NO, SpeculationPolicy.NAIVE):
        result = _run(recurrence_trace, AS, policy)
        assert result.misspeculations == 0


def test_as_scheduler_latency_hurts(memcopy_trace):
    ipc = [
        _run(memcopy_trace, AS, SpeculationPolicy.NAIVE,
             addr_scheduler_latency=latency).ipc
        for latency in (0, 1, 2)
    ]
    assert ipc[0] >= ipc[1] >= ipc[2]
    assert ipc[0] > ipc[2]


def test_forwarding_counted(stack_calls_trace):
    result = _run(stack_calls_trace, NAS, SpeculationPolicy.SYNC)
    assert result.load_forwards > 0


def test_window_64_is_slower_than_128(memcopy_trace):
    big = simulate(
        continuous_window_128(NAS, SpeculationPolicy.ORACLE),
        memcopy_trace,
    )
    small = simulate(
        continuous_window_64(NAS, SpeculationPolicy.ORACLE),
        memcopy_trace,
    )
    assert small.ipc < big.ipc


def test_sampling_plan_reduces_timed_cycles(memcopy_trace):
    full = simulate(continuous_window_128(), memcopy_trace)
    half = SamplingPlan(
        (
            Segment(0, len(memcopy_trace) // 2, timing=False),
            Segment(len(memcopy_trace) // 2, len(memcopy_trace),
                    timing=True),
        ),
        len(memcopy_trace),
    )
    sampled = simulate(continuous_window_128(), memcopy_trace, half)
    assert sampled.committed == len(memcopy_trace) // 2
    assert sampled.cycles < full.cycles


def test_branch_stats_populated(recurrence_trace):
    result = _run(recurrence_trace)
    assert result.branch_predictions > 0
    assert result.committed_branches > 0


def test_table3_accounting_on_false_dep_kernel(memcopy_trace):
    result = _run(memcopy_trace, NAS, SpeculationPolicy.NO)
    # Every blocked load in memcopy is blocked by a *false* dependence.
    assert result.true_dependence_loads == 0
    assert result.false_dependence_loads > 0
    assert result.mean_resolution_latency > 0


def test_table3_accounting_on_true_dep_kernel(recurrence_trace):
    result = _run(recurrence_trace, NAS, SpeculationPolicy.NO)
    assert result.true_dependence_loads > result.false_dependence_loads


def test_empty_segment_trace():
    trace = Trace([DynInst(seq=0, pc=0, op=OpClass.IALU, dest=1)])
    result = simulate(continuous_window_128(), trace)
    assert result.committed == 1
    assert result.cycles > 0


def test_flush_interval_configurable(recurrence_trace):
    cfg = continuous_window_128(
        NAS, SpeculationPolicy.SYNC, flush_interval=200
    )
    result = simulate(cfg, recurrence_trace)
    # Frequent flushes forget the MDPT: more miss-speculations than with
    # the default long interval.
    default = _run(recurrence_trace, NAS, SpeculationPolicy.SYNC)
    assert result.misspeculations >= default.misspeculations


def test_events_on_one_cycle_fire_in_scheduling_order():
    """The event calendar fires a cycle's events in the order they were
    scheduled, whatever their kind, after those of earlier cycles, and
    skips squashed entries."""
    from repro.core.processor import _EV_COMPLETE, _EV_READY, _EV_WRITE
    from repro.core.window import Entry

    insts = [DynInst(seq=i, pc=4 * i, op=OpClass.IALU) for i in range(7)]
    processor = Processor(
        continuous_window_128(NAS, SpeculationPolicy.NAIVE),
        Trace(insts, name="calendar"),
    )
    processor._begin_segment(0, len(insts))
    fired = []
    processor._on_complete = lambda e: fired.append(("complete", e.seq))
    processor._on_store_write = lambda e: fired.append(("write", e.seq))
    processor.ready_pool.push = lambda e: fired.append(("ready", e.seq))
    entries = [Entry(inst, 0) for inst in insts]
    entries[5].squashed = True
    for cycle, kind, seq in (
        (6, _EV_COMPLETE, 6),
        (5, _EV_READY, 0),
        (5, _EV_COMPLETE, 1),
        (5, _EV_WRITE, 2),
        (5, _EV_READY, 3),
        (5, _EV_COMPLETE, 5),
        (5, _EV_COMPLETE, 4),
    ):
        processor._schedule(cycle, kind, entries[seq])
    processor.cycle = 6
    processor._process_events()
    assert fired == [
        ("ready", 0), ("complete", 1), ("write", 2), ("ready", 3),
        ("complete", 4), ("complete", 6),
    ]
    assert not processor._cycles and not processor._calendar


def _objects_added_by(build):
    """GC-tracked objects that *build()* allocates and keeps."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        _machine = build()  # kept alive until counted
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


def test_processor_construction_allocates_no_table_sets(recurrence_trace):
    """Cache, BTB and predictor sets are created when first written, so
    building a machine costs tens of objects, not one per set (eager
    Table 2 tables made 21,061 for NAS/SYNC)."""
    dep_info = compute_dependence_info(recurrence_trace)
    cfg = continuous_window_128(NAS, SpeculationPolicy.SYNC)
    assert _objects_added_by(
        lambda: Processor(cfg, recurrence_trace, dep_info)
    ) < 500


def test_hierarchy_construction_allocates_no_cache_sets():
    """The 4 MB L2 and the two L1s alone made 17,982 objects eagerly."""
    assert _objects_added_by(
        lambda: MemoryHierarchy(continuous_window_128())
    ) < 100
