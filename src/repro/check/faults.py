"""Test-only fault injection: seed known bugs, prove the checkers fire.

Each :class:`Fault` names one realistic simulator-bug class, carries a
patch that plants the bug in a *live* processor, and a deterministic
micro-trace scenario on which the bug is guaranteed to manifest. The
self-test (:func:`repro.check.harness.selftest`) runs every scenario
twice — clean (no violations allowed) and faulted (the named check
must fire) — so a checker that silently stops detecting anything
breaks the build.

Faults are applied through the observer bus: a fault is a sink whose
``on_segment`` hook monkey-patches the processor's per-segment
structures (store buffer, window, violation detector) the moment they
exist. Production code paths are never touched — the patches live on
one processor *instance* and die with it.

Bug classes (>= 6 distinct, per the acceptance criteria):

==================== ====================================================
``wrong-forward``     store buffer forwards from the *oldest* matching
                      store instead of the youngest older one
``skip-squash``       the violation detector never reports violating
                      loads (miss-speculation recovery skipped)
``commit-reorder``    commit pops the second-oldest window entry (ROB
                      head pointer corruption)
``gate-bypass``       a NO-speculation machine issues loads past
                      unexecuted older stores (gate forced open)
``phantom-squash``    an ORACLE machine miss-speculates and squashes
                      (perfect dependence knowledge corrupted)
``zombie-buffer``     squash recovery forgets to flush the store
                      buffer's squashed-younger entries
``commit-drift``      the committed-instruction counter drifts from the
                      actually committed stream
==================== ====================================================
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.config.presets import continuous_window_128
from repro.config.processor import (
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.observe.bus import ObserverSink
from repro.trace.events import Trace

# -- micro-trace construction -------------------------------------------------


def _inst(seq, op, dest=None, srcs=(), addr=None, value=None):
    return DynInst(
        seq=seq, pc=seq * 4, op=op, dest=dest, srcs=srcs,
        addr=addr, size=4, value=value,
    )


def _micro_trace(body, name: str, filler: int = 24) -> Trace:
    """*body* (seq-ordered specs) plus IALU filler, as a Trace."""
    instructions = list(body)
    seq = len(instructions)
    for _ in range(filler):
        instructions.append(_inst(seq, OpClass.IALU, dest=30))
        seq += 1
    return Trace(instructions, name=name)


def _true_dependence_body():
    """A store whose data waits on an IDIV, then a load of that word.

    Under any speculative gate the load reads the stale word long
    before the store writes — the canonical miss-speculation. An
    earlier load of the same word warms the cache so the premature
    read completes (stale) well before the store's write, rather than
    hiding behind a cold-miss latency.
    """
    return [
        _inst(0, OpClass.IALU, dest=1),
        _inst(1, OpClass.LOAD, dest=6, srcs=(1,), addr=0x100, value=0),
        _inst(2, OpClass.IDIV, dest=3, srcs=(1, 1)),
        _inst(3, OpClass.STORE, srcs=(1, 3), addr=0x100, value=7),
        _inst(4, OpClass.LOAD, dest=4, srcs=(1,), addr=0x100, value=7),
        _inst(5, OpClass.IALU, dest=5, srcs=(4,)),
    ]


def _scenario_two_stores() -> Tuple[ProcessorConfig, Trace]:
    """Two buffered stores to one word; only the younger is correct."""
    body = [
        _inst(0, OpClass.IALU, dest=1),
        _inst(1, OpClass.STORE, srcs=(1, 2), addr=0x100, value=1),
        _inst(2, OpClass.STORE, srcs=(1, 2), addr=0x100, value=2),
        _inst(3, OpClass.LOAD, dest=4, srcs=(1,), addr=0x100, value=2),
    ]
    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    return config, _micro_trace(body, "micro-two-stores")


def _scenario_true_dependence(
    policy: SpeculationPolicy = SpeculationPolicy.NAIVE,
) -> Tuple[ProcessorConfig, Trace]:
    config = continuous_window_128(SchedulingModel.NAS, policy)
    return config, _micro_trace(
        _true_dependence_body(), "micro-true-dep"
    )


def _scenario_false_dependence() -> Tuple[ProcessorConfig, Trace]:
    """A slow store and a younger load to a *different* word."""
    body = [
        _inst(0, OpClass.IALU, dest=1),
        _inst(1, OpClass.IDIV, dest=3, srcs=(1, 1)),
        _inst(2, OpClass.STORE, srcs=(1, 3), addr=0x100, value=7),
        _inst(3, OpClass.LOAD, dest=4, srcs=(1,), addr=0x200, value=0),
    ]
    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NO
    )
    return config, _micro_trace(body, "micro-false-dep")


def _scenario_squash_with_younger_store() -> Tuple[ProcessorConfig, Trace]:
    """A miss-speculating load followed by a younger buffered store."""
    body = [
        _inst(0, OpClass.IALU, dest=1),
        _inst(1, OpClass.IDIV, dest=3, srcs=(1, 1)),
        _inst(2, OpClass.STORE, srcs=(1, 3), addr=0x100, value=7),
        _inst(3, OpClass.LOAD, dest=4, srcs=(1,), addr=0x100, value=7),
        _inst(4, OpClass.STORE, srcs=(1, 1), addr=0x200, value=9),
    ]
    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    return config, _micro_trace(body, "micro-zombie")


def _scenario_plain() -> Tuple[ProcessorConfig, Trace]:
    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    body = [
        _inst(0, OpClass.IALU, dest=1),
        _inst(1, OpClass.STORE, srcs=(1, 1), addr=0x100, value=3),
        _inst(2, OpClass.LOAD, dest=2, srcs=(1,), addr=0x100, value=3),
    ]
    return config, _micro_trace(body, "micro-plain")


# -- the patches --------------------------------------------------------------


def _patch_wrong_forward(processor) -> None:
    buffer = processor.store_buffer

    def oldest_first_search(seq, addr, size, _buffer=buffer):
        end = addr + size
        entries = _buffer._entries
        hi = bisect_left(_buffer._seqs, seq)
        for index in range(hi):  # bug: oldest-first
            entry = entries[index]
            if entry.addr < end and addr < entry.addr + entry.size:
                full = (
                    entry.addr <= addr and end <= entry.addr + entry.size
                )
                if full:
                    _buffer.forwards += 1
                return entry, full
        return None, False

    buffer.search = oldest_first_search


def _patch_skip_squash(processor) -> None:
    processor.detector.loads_violating = lambda store_seq, cycle: []


def _patch_commit_reorder(processor) -> None:
    window = processor.window

    def reordered_commit_head(_window=window):
        entries = _window._entries
        index = 1 if len(entries) > 1 else 0  # bug: skips the head
        entry = entries[index]
        del entries[index]
        dest = entry.inst.dest
        if dest is not None and _window._last_writer[dest] is entry:
            _window._last_writer[dest] = None
        return entry

    window.commit_head = reordered_commit_head


def _patch_gate_open(processor) -> None:
    from repro.core.processor import _GATE_OPEN

    processor._gate_kind = _GATE_OPEN


def _patch_zombie_buffer(processor) -> None:
    processor.store_buffer.squash_younger = lambda seq: None


def _patch_commit_drift(processor) -> None:
    window = processor.window
    real = window.commit_head
    state = {"commits": 0}

    def drifting_commit_head():
        entry = real()
        state["commits"] += 1
        if state["commits"] == 3:  # bug: one phantom commit
            processor.stats.committed += 1
        return entry

    window.commit_head = drifting_commit_head


# -- fault registry -----------------------------------------------------------


class _FaultSink(ObserverSink):
    """Observer sink that plants the bug once structures exist."""

    def __init__(self, patch: Callable) -> None:
        self._patch = patch
        self.applied = 0

    def on_segment(self, processor) -> None:
        self._patch(processor)
        self.applied += 1


@dataclass(frozen=True)
class Fault:
    """One seeded bug class plus its guaranteed-detection scenario."""

    name: str
    description: str
    #: Check names (see docs/TESTING.md) any of which count as caught.
    expect_checks: Tuple[str, ...]
    patch: Callable
    scenario: Callable[[], Tuple[ProcessorConfig, Trace]]

    def sink(self) -> _FaultSink:
        return _FaultSink(self.patch)


FAULTS: Dict[str, Fault] = {
    fault.name: fault
    for fault in (
        Fault(
            name="wrong-forward",
            description=(
                "store-to-load forwarding picks the oldest matching "
                "store instead of the youngest older one"
            ),
            expect_checks=("forward-value",),
            patch=_patch_wrong_forward,
            scenario=_scenario_two_stores,
        ),
        Fault(
            name="skip-squash",
            description=(
                "the violation detector drops every violating load, so "
                "miss-speculated values commit uncorrected"
            ),
            expect_checks=("stale-load",),
            patch=_patch_skip_squash,
            scenario=_scenario_true_dependence,
        ),
        Fault(
            name="commit-reorder",
            description=(
                "commit pops the second-oldest window entry, breaking "
                "program order at retirement"
            ),
            expect_checks=("commit-order",),
            patch=_patch_commit_reorder,
            scenario=_scenario_plain,
        ),
        Fault(
            name="gate-bypass",
            description=(
                "a NO-speculation machine issues loads past unexecuted "
                "older stores"
            ),
            expect_checks=("gate-soundness",),
            patch=_patch_gate_open,
            scenario=_scenario_false_dependence,
        ),
        Fault(
            name="phantom-squash",
            description=(
                "an ORACLE machine speculates blindly and pays squashes "
                "its perfect dependence knowledge forbids"
            ),
            expect_checks=("policy-squash", "gate-soundness"),
            patch=_patch_gate_open,
            scenario=lambda: _scenario_true_dependence(
                SpeculationPolicy.ORACLE
            ),
        ),
        Fault(
            name="zombie-buffer",
            description=(
                "squash recovery forgets to flush squashed-younger "
                "stores out of the store buffer"
            ),
            expect_checks=("store-buffer-zombie",),
            patch=_patch_zombie_buffer,
            scenario=_scenario_squash_with_younger_store,
        ),
        Fault(
            name="commit-drift",
            description=(
                "the committed-instruction counter drifts from the "
                "actually committed stream"
            ),
            expect_checks=("commit-count",),
            patch=_patch_commit_drift,
            scenario=_scenario_plain,
        ),
    )
}


def fault_names() -> Tuple[str, ...]:
    return tuple(sorted(FAULTS))
