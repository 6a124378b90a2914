"""Structural invariants checked during live simulation.

A cycle sink reads the issue counters the core writes back every cycle;
any cycle that over-subscribes issue slots, functional units or memory
ports fails the test immediately.
"""

import pytest

from repro.config import (
    continuous_window_128,
    continuous_window_64,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.processor import Processor
from repro.observe import ObserverBus


class _LimitSink:
    """Cycle sink asserting the issue counters the core writes back."""

    wants_events = False
    wants_cycles = True
    summary_key = None

    def __init__(self, window) -> None:
        self.window = window
        self.peak_int = 0
        self.peak_ports = 0

    def on_segment(self, processor) -> None:
        pass

    def on_squash(self, resume_cycle: int) -> None:
        pass

    def on_cycle(self, processor) -> None:
        funits = processor.funits
        window = self.window
        issued = funits.issued_this_cycle
        ports = funits.ports_used_this_cycle
        assert issued <= window.issue_width, "issue width exceeded"
        assert funits._int_used <= window.fu_copies, "int FUs over"
        assert funits._fp_used <= window.fu_copies, "FP FUs over"
        assert funits._int_used + funits._fp_used == issued
        assert ports <= window.memory_ports, "memory ports exceeded"
        self.peak_int = max(self.peak_int, funits._int_used)
        self.peak_ports = max(self.peak_ports, ports)


def _run_within_limits(config, trace) -> _LimitSink:
    sink = _LimitSink(config.window)
    result = Processor(config, trace, observer=ObserverBus([sink])).run()
    assert result.committed == len(trace)
    return sink


@pytest.mark.parametrize("policy", [
    SpeculationPolicy.NO,
    SpeculationPolicy.NAIVE,
    SpeculationPolicy.SYNC,
    SpeculationPolicy.ORACLE,
])
def test_structural_limits_never_exceeded(policy, recurrence_trace):
    _run_within_limits(
        continuous_window_128(SchedulingModel.NAS, policy), recurrence_trace
    )


def test_narrow_machine_limits_hold(memcopy_trace):
    _run_within_limits(
        continuous_window_64(SchedulingModel.AS, SpeculationPolicy.NAIVE),
        memcopy_trace,
    )


def test_window_never_overflows(recurrence_trace):
    config = continuous_window_64(
        SchedulingModel.NAS, SpeculationPolicy.NO
    )
    processor = Processor(config, recurrence_trace)
    max_seen = 0
    original = processor._dispatch

    def watched():
        nonlocal max_seen
        original()
        max_seen = max(max_seen, len(processor.window))
        assert len(processor.window) <= config.window.size

    processor._dispatch = watched
    processor.run()
    assert 0 < max_seen <= config.window.size


@pytest.mark.parametrize("scheduling,policy", [
    (SchedulingModel.NAS, SpeculationPolicy.NAIVE),
    (SchedulingModel.NAS, SpeculationPolicy.ORACLE),
    (SchedulingModel.AS, SpeculationPolicy.NAIVE),
])
def test_issue_counters_stay_within_limits(scheduling, policy, memcopy_trace):
    # The issue loops keep these counters in locals and write them back
    # at the end of each loop; every cycle's totals must respect the
    # machine's limits, and the narrow machine must reach them (memcopy
    # is all integer ops, so its two integer units bind before the
    # issue width does).
    config = continuous_window_64(scheduling, policy)
    sink = _run_within_limits(config, memcopy_trace)
    assert sink.peak_int == config.window.fu_copies
    assert sink.peak_ports == config.window.memory_ports
