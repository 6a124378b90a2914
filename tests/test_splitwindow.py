"""Tests for the split-window machine and the Section 3.7 contrast.

Golden numbers, ideal and fabric cells alike, are pinned by
``test_splitwindow_parity.py``; this module covers behaviour: the
Figure 7 contrast, determinism, geometry, the sync-fabric knobs (link
latency, bounded bandwidth, banked memory), the fabric's delivery heap,
routing of split configs, and the result-store key for fabric points.
"""

from dataclasses import asdict, replace

import pytest

from repro.config import (
    continuous_window_128,
    split_window,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core import Processor, simulate
from repro.core.backend import UnknownBackendError, resolve_backend
from repro.core.vector import VectorProcessor
from repro.experiments.runner import (
    ExperimentSettings,
    _config_key,
    clear_results,
    run_benchmark,
)
from repro.experiments.store import ResultStore, set_store
from repro.splitwindow import SplitWindowProcessor, SyncFabric, simulate_split
from repro.trace.dependences import compute_dependence_info
from repro.workloads.catalog import get_trace

AS = SchedulingModel.AS
NAS = SchedulingModel.NAS
NAV = SpeculationPolicy.NAIVE


def setup_function(_):
    clear_results()


def _split(**kwargs):
    return split_window(AS, NAV, **kwargs)


# Kernel traces run the kernel to completion; the length is an upper
# bound that must clear the kernel's dynamic instruction count.
def _run(config, kernel="recurrence", length=4_000):
    trace = get_trace(kernel, length, seed=0)
    return simulate_split(config, trace, compute_dependence_info(trace))


# -- the Section 3.7 machine -------------------------------------------


def test_all_instructions_commit(memcopy_trace):
    result = simulate_split(split_window(AS, NAV), memcopy_trace)
    assert result.committed == len(memcopy_trace)
    summary = memcopy_trace.summary()
    assert result.committed_loads == summary.loads


def test_figure7_contrast(recurrence_trace):
    """The paper's core Section 3.7 claim: a 0-cycle address scheduler
    eliminates miss-speculation under a continuous window but NOT under
    a split window."""
    cont = simulate(continuous_window_128(AS, NAV), recurrence_trace)
    split = simulate_split(split_window(AS, NAV), recurrence_trace)
    assert cont.misspeculations == 0
    assert split.misspeculation_rate > 0.05


def test_split_without_dependences_is_clean(memcopy_trace):
    result = simulate_split(split_window(AS, NAV), memcopy_trace)
    assert result.misspeculations == 0


def test_split_makes_forward_progress(stack_calls_trace):
    result = simulate_split(split_window(AS, NAV), stack_calls_trace)
    assert result.committed == len(stack_calls_trace)
    assert result.ipc > 0.1


def test_more_units_finish(recurrence_trace):
    result = simulate_split(
        split_window(AS, NAV, num_units=8, task_size=16),
        recurrence_trace,
    )
    assert result.committed == len(recurrence_trace)


def test_nas_split_supported(recurrence_trace):
    result = simulate_split(split_window(NAS, NAV), recurrence_trace)
    assert result.committed == len(recurrence_trace)
    assert result.misspeculation_rate > 0


def test_rejects_continuous_config(recurrence_trace):
    with pytest.raises(ValueError):
        SplitWindowProcessor(
            continuous_window_128(AS, NAV), recurrence_trace
        )


def test_rejects_unsupported_policy(recurrence_trace):
    with pytest.raises(ValueError):
        SplitWindowProcessor(
            split_window(NAS, SpeculationPolicy.SYNC), recurrence_trace
        )


def test_split_is_deterministic(recurrence_trace):
    a = simulate_split(split_window(AS, NAV), recurrence_trace)
    b = simulate_split(split_window(AS, NAV), recurrence_trace)
    assert a.cycles == b.cycles
    assert a.misspeculations == b.misspeculations


def test_scheduler_latency_delays_posting(recurrence_trace):
    """With a slower address scheduler, posted addresses become visible
    later, so the split window miss-speculates at least as much."""
    fast = simulate_split(
        split_window(AS, NAV, addr_scheduler_latency=0),
        recurrence_trace,
    )
    slow = simulate_split(
        split_window(AS, NAV, addr_scheduler_latency=2),
        recurrence_trace,
    )
    assert slow.misspeculations >= fast.misspeculations


def test_task_size_one_extreme(memcopy_trace):
    result = simulate_split(
        split_window(AS, NAV, num_units=2, task_size=8), memcopy_trace
    )
    assert result.committed == len(memcopy_trace)


def test_split_counts_match_summary(stack_calls_trace):
    result = simulate_split(
        split_window(AS, NAV), stack_calls_trace
    )
    summary = stack_calls_trace.summary()
    assert result.committed_loads == summary.loads
    assert result.committed_stores == summary.stores
    assert result.committed_branches == summary.branches


def test_empty_ish_trace():
    from repro.isa.instruction import DynInst
    from repro.isa.opcodes import OpClass
    from repro.trace.events import Trace
    trace = Trace([DynInst(seq=0, pc=0, op=OpClass.IALU, dest=1)])
    result = simulate_split(split_window(AS, NAV), trace)
    assert result.committed == 1


# -- sync fabric and banked memory -------------------------------------


def test_fabric_run_is_deterministic():
    config = _split(link_latency=2, sync_bandwidth=2)
    first = _run(config)
    second = _run(config)
    assert asdict(first) == asdict(second)


def test_fabric_stats_attached():
    result = _run(_split(link_latency=1, sync_bandwidth=2, mem_banks=4))
    info = result.extra["fabric"]
    assert info["fabric_posted"] > 0
    assert info["bank_accesses"] > 0
    # bench/tracing.py counts engine events whenever this key exists.
    assert "eventsim" not in result.extra


def test_link_latency_delays_visibility_and_costs_misspeculations():
    """A slower fabric can only widen the blind window (R6 direction)."""
    base = _run(_split()).misspeculations
    slow = _run(_split(link_latency=2)).misspeculations
    slower = _run(_split(link_latency=4)).misspeculations
    assert base <= slow <= slower
    assert slower > base  # recurrence is dependence-dense: must move


def test_bounded_bandwidth_queues_postings():
    result = _run(_split(sync_bandwidth=1), kernel="memcopy",
                  length=8_000)
    info = result.extra["fabric"]
    assert info["fabric_queued"] > 0
    assert info["fabric_max_queue_delay"] >= 1


def test_banked_memory_conflicts_cost_cycles():
    free = _run(_split())
    banked = _run(_split(mem_banks=1, bank_ports=1))
    assert banked.extra["fabric"]["bank_conflicts"] > 0
    assert banked.cycles >= free.cycles


def test_commit_stream_immune_to_fabric():
    """Fabric knobs change timing/speculation, never correctness."""
    ideal = _run(_split())
    real = _run(_split(link_latency=3, sync_bandwidth=1, mem_banks=2))
    for field in ("committed", "committed_loads", "committed_stores",
                  "committed_branches"):
        assert getattr(ideal, field) == getattr(real, field)


def test_fabric_delivers_by_visible_cycle_then_send_order():
    fabric = SyncFabric(link_latency=2, bandwidth=0)
    assert fabric.send(7, base=5) == 7
    assert fabric.send(3, base=4) == 6
    assert fabric.send(9, base=5) == 7
    assert list(fabric.due(6)) == [(3, 6)]
    assert list(fabric.due(7)) == [(7, 7), (9, 7)]
    assert list(fabric.due(100)) == []


def test_fabric_bandwidth_queues_fifo():
    fabric = SyncFabric(link_latency=0, bandwidth=1)
    assert [fabric.send(seq, base=3) for seq in (1, 2, 3)] == [3, 4, 5]
    assert fabric.stats() == {
        "fabric_posted": 3, "fabric_queued": 2,
        "fabric_max_queue_delay": 2,
    }


def test_fabric_cancel_drops_messages_and_frees_slots():
    fabric = SyncFabric(link_latency=1, bandwidth=1)
    assert fabric.send(4, base=2) == 3
    assert fabric.send(6, base=2) == 4
    fabric.cancel_from(5)
    # The cancelled store re-posts into its freed slot; only the new
    # message is delivered, never the cancelled one.
    assert fabric.send(6, base=2) == 4
    assert list(fabric.due(10)) == [(4, 3), (6, 4)]


# -- routing -----------------------------------------------------------


def test_simulate_runs_split_configs_on_split_machine():
    """Regression: simulate() used to ignore config.split and run the
    continuous-window core on a split config."""
    config = split_window(AS, NAV)
    trace = get_trace("recurrence", 4_000, 0)
    result = simulate(config, trace)
    assert asdict(result) == asdict(simulate_split(config, trace))
    assert (result.cycles, result.misspeculations) == (3421, 112)
    for core in (Processor, VectorProcessor):
        with pytest.raises(ValueError, match="SplitWindowProcessor"):
            core(config, trace)


def test_run_benchmark_runs_split_configs_on_split_machine():
    settings = ExperimentSettings(
        timing_instructions=1_200, warmup_instructions=400
    )
    result = run_benchmark("126.gcc", _split(link_latency=1), settings)
    assert result.extra["backend"] == "split"
    assert result.extra["fabric"]["fabric_posted"] > 0
    # The split machine emits no observer events: asking for them is
    # an error, not a result silently missing extra["observe"].
    with pytest.raises(ValueError, match="observe"):
        run_benchmark("126.gcc", replace(_split(), observe=True), settings)


def test_eventsim_is_not_a_backend():
    with pytest.raises(UnknownBackendError) as excinfo:
        resolve_backend("eventsim")
    assert "reference" in str(excinfo.value)
    assert "vector" in str(excinfo.value)


def test_eventsim_alias_is_the_split_machine():
    # bench/child.py, bench/tracing.py and bench/tests/test_bench.py
    # import the old name.
    from repro.eventsim.splitwindow import EventSplitWindowProcessor

    assert EventSplitWindowProcessor is SplitWindowProcessor


# -- store schema regression (fabric knobs in the config key) ----------

_FABRIC_POINTS = (
    {},
    {"link_latency": 1},
    {"sync_bandwidth": 2},
    {"mem_banks": 4},
    {"mem_banks": 4, "bank_ports": 2},
    {"link_latency": 2, "sync_bandwidth": 1},
)


def test_config_key_separates_fabric_points():
    """Regression: distinct fabric settings must never share a key.

    Before schema v3 the key ignored the fabric knobs, so a
    link_latency=2 result could be served from the cache to a
    link_latency=0 request (and vice versa) — silently wrong sweeps.
    """
    keys = {_config_key(_split(**point)) for point in _FABRIC_POINTS}
    assert len(keys) == len(_FABRIC_POINTS)


@pytest.mark.parametrize(
    "point", _FABRIC_POINTS,
    ids=["-".join(f"{k}{v}" for k, v in p.items()) or "degenerate"
         for p in _FABRIC_POINTS],
)
def test_store_roundtrip_per_fabric_point(tmp_path, point):
    """Each fabric point persists and restores as itself, not a twin."""
    settings = ExperimentSettings(
        timing_instructions=1_200, warmup_instructions=400
    )
    config = _split(**point)
    store = ResultStore(str(tmp_path))
    set_store(store)
    try:
        first = run_benchmark("129.compress", config, settings)
        clear_results()  # drop the in-memory memo; force a store hit
        second = run_benchmark("129.compress", config, settings)
        assert second.cycles == first.cycles
        assert second.misspeculations == first.misspeculations
        # ...and a *different* fabric point misses this entry.
        other = _split(link_latency=3, sync_bandwidth=1, mem_banks=8)
        assert store.load("129.compress", settings, _config_key(other)) is None
    finally:
        set_store(None)
