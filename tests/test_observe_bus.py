"""Unit tests for the observer bus and its hook contract."""

import dataclasses

from repro.config.presets import continuous_window_128
from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.core.processor import Processor
from repro.observe import (
    ObserverBus,
    ObserverSink,
    PipelineRecorder,
    StallAccountant,
    default_observer,
)
from repro.observe.bus import HOOKS
from repro.trace.dependences import compute_dependence_info
from repro.trace.sampling import SamplingPlan, Segment
from repro.workloads.catalog import get_trace


class _HookLog(ObserverSink):
    """Logs every lifecycle hook as ``(hook, seq, cycle)``."""

    summary_key = "log"

    def __init__(self):
        self.calls = []

    def raw_fetch(self, inst, cycle):
        self.calls.append(("fetch", inst.seq, cycle))

    def raw_dispatch(self, entry, cycle):
        self.calls.append(("dispatch", entry.seq, cycle))

    def raw_issue(self, entry, cycle):
        self.calls.append(("issue", entry.seq, cycle))

    def raw_mem_issue(self, entry, cycle, forwarded):
        self.calls.append(("mem-issue", entry.seq, cycle))

    def raw_blocked(self, entry, cycle, cause):
        self.calls.append(("blocked", entry.seq, cycle))

    def raw_squash(self, load, store, cycle, squashed, resume):
        self.calls.append(("squash", load.seq, cycle))

    def raw_replay(self, load, cycle, reexecuted):
        self.calls.append(("replay", load.seq, cycle))

    def raw_commit(self, entry, cycle):
        self.calls.append(("commit", entry.seq, cycle))

    def summary(self):
        return {"calls": len(self.calls)}


class _FetchLog(ObserverSink):
    def __init__(self):
        self.fetched = []

    def raw_fetch(self, inst, cycle):
        self.fetched.append((inst.seq, cycle))


class _CycleLog:
    """Duck-typed: no base class, so it takes every hook it defines."""

    def __init__(self):
        self.cycles = []
        self.segments = 0
        self.squashes = []

    def on_cycle(self, processor):
        self.cycles.append(processor.cycle)

    def on_segment(self, processor):
        self.segments += 1

    def raw_squash(self, load, store, cycle, squashed, resume):
        self.squashes.append((load.seq, store.seq, cycle, squashed, resume))


class _Inst:
    def __init__(self, seq, pc=0x400000, op="ADD"):
        self.seq = seq
        self.pc = pc
        self.op = type("Op", (), {"name": op})()


class _Entry:
    def __init__(self, seq):
        self.seq = seq
        self.inst = _Inst(seq, op="LW")


def test_event_names_cover_every_kind():
    """Each of the eight lifecycle events reaches its own ``raw_*``
    hook, and ``HOOKS`` names exactly the hooks ``ObserverSink`` has."""
    assert set(HOOKS) == {
        name for name in vars(ObserverSink)
        if name.startswith(("on_", "raw_"))
    }
    log = _HookLog()
    bus = ObserverBus([log])
    inst, entry, store = _Inst(0), _Entry(0), _Entry(1)
    bus.emit_fetch(inst, cycle=1)
    bus.emit_dispatch(entry, cycle=2)
    bus.emit_issue(entry, cycle=3)
    bus.emit_mem_issue(entry, cycle=4, forwarded=False)
    bus.emit_blocked(entry, cycle=5, cause=None)
    bus.emit_squash(entry, store, cycle=6, squashed=1, resume=7)
    bus.emit_replay(entry, cycle=8, reexecuted=1)
    bus.emit_commit(entry, cycle=9)
    assert [name for name, _, _ in log.calls] == [
        "fetch", "dispatch", "issue", "mem-issue", "blocked", "squash",
        "replay", "commit",
    ]
    assert [cycle for _, _, cycle in log.calls] == [1, 2, 3, 4, 5, 6, 8, 9]
    assert bus.events_emitted == 8


def test_sink_takes_only_the_hooks_it_overrides():
    bus = ObserverBus([_FetchLog(), ObserverSink(), _CycleLog()])
    taken = {name: len(hooks) for name, hooks in bus._hooks.items()}
    assert taken == {
        name: int(name in ("raw_fetch", "on_cycle", "on_segment",
                           "raw_squash"))
        for name in HOOKS
    }


def test_events_materialised_only_for_event_sinks():
    """An emit that no sink takes calls nothing but still counts; a
    sink added later takes the events after it."""
    fetches = _FetchLog()
    bus = ObserverBus([fetches, ObserverSink(), _CycleLog()])
    bus.emit_fetch(_Inst(0), cycle=1)
    bus.emit_issue(_Entry(0), cycle=3)  # no sink takes raw_issue
    assert fetches.fetched == [(0, 1)]
    # Every emit counts one event, taken or not.
    assert bus.events_emitted == 2

    log = _HookLog()
    bus.add_sink(log)
    bus.emit_fetch(_Inst(1), cycle=2)
    assert fetches.fetched == [(0, 1), (1, 2)]
    assert log.calls == [("fetch", 1, 2)]
    assert bus.events_emitted == 3


def test_counters_and_high_water():
    bus = ObserverBus()
    bus.note("store-buffer.forward")
    bus.note("store-buffer.forward")
    bus.note_depth("load-pool", 3)
    bus.note_depth("load-pool", 9)
    bus.note_depth("load-pool", 4)
    summary = bus.summary()
    assert summary["counters"] == {"store-buffer.forward": 2}
    assert summary["high_water"] == {"load-pool": 9}


def test_squash_fans_out_to_cycle_sinks():
    """A squash reaches every sink that takes ``raw_squash``: the
    per-cycle sinks (the stall accountant's recovery window) and the
    pipeline recorder, but not a sink that leaves it alone."""
    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    cycles = _CycleLog()
    accountant = StallAccountant(config)
    recorder = PipelineRecorder()
    fetches = _FetchLog()
    bus = ObserverBus([cycles, fetches, accountant, recorder])

    bus.emit_squash(_Entry(10), _Entry(4), cycle=50, squashed=6,
                    resume=51)
    assert cycles.squashes == [(10, 4, 50, 6, 51)]
    assert accountant._squash_until == (
        51 + config.fetch.front_end_depth
    )
    assert recorder.squashes == [{
        "cycle": 50, "load_seq": 10, "store_seq": 4,
        "squashed": 6, "resume": 51,
    }]
    assert fetches.fetched == []
    assert bus.events_emitted == 1


def test_summary_collects_named_sinks():
    log = _HookLog()
    bus = ObserverBus([log, ObserverSink(), _CycleLog()])
    bus.emit_fetch(_Inst(0), cycle=0)
    summary = bus.summary()
    assert summary["log"] == {"calls": 1}
    # Sinks without a summary_key contribute nothing.
    assert set(summary) == {
        "events", "counters", "high_water", "log",
    }


def test_default_observer_carries_stall_accountant():
    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    bus = default_observer(config)
    (sink,) = bus._sinks
    assert isinstance(sink, StallAccountant)
    assert sink.width == config.window.issue_width


def test_event_stream_is_causally_ordered():
    """End-to-end: fetch <= dispatch <= commit per seq, commits in
    program order, and the event counter matches the hook calls."""
    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    trace = get_trace("126.gcc", 1_500, seed=0)
    info = compute_dependence_info(trace)
    plan = SamplingPlan(
        (Segment(0, 500, timing=False),
         Segment(500, 1_500, timing=True)),
        1_500,
    )
    log = _HookLog()
    bus = ObserverBus([log])
    result = Processor(config, trace, info, observer=bus).run(plan)

    assert bus.events_emitted == len(log.calls)
    assert result.extra["observe"]["events"] == len(log.calls)

    fetched, dispatched = {}, {}
    commits = []
    for hook, seq, cycle in log.calls:
        if hook == "fetch":
            fetched.setdefault(seq, cycle)
        elif hook == "dispatch":
            dispatched.setdefault(seq, cycle)
        elif hook == "commit":
            commits.append((seq, cycle))
    assert len(commits) == result.committed
    assert [seq for seq, _ in commits] == sorted(seq for seq, _ in commits)
    for seq, cycle in commits:
        if seq in fetched:
            assert fetched[seq] <= cycle
        if seq in dispatched:
            assert fetched.get(seq, 0) <= dispatched[seq]
            assert dispatched[seq] <= cycle


def test_observe_flag_autocreates_bus():
    config = dataclasses.replace(
        continuous_window_128(
            SchedulingModel.NAS, SpeculationPolicy.NAIVE
        ),
        observe=True,
    )
    trace = get_trace("126.gcc", 1_000, seed=0)
    info = compute_dependence_info(trace)
    processor = Processor(config, trace, info)
    assert isinstance(processor.observer, ObserverBus)
    plan = SamplingPlan((Segment(0, 1_000, timing=True),), 1_000)
    result = processor.run(plan)
    assert "stalls" in result.extra["observe"]
