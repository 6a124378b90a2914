"""Event-horizon elision soundness: unit tests + hypothesis property.

The vector backend's elided-cycle claim is verified differentially:
every elided ``[start, stop)`` range must be schedulable-empty on the
reference core, the ranges must sum to ``skipped_cycles``, and the
vector's skipped set must *cover* the reference's fast-forwarded
cycles (the conservation-law oracle:
``commit_slots + stall_slots == width × cycles`` with every skipped
slot charged to a wait cause). Coverage rather than equality: the
vector macro-steps — it also elides the empty probe cycle the
reference walks after every active one — so its skipped set is a
superset of the reference's gap set, never smaller.
"""

from hypothesis import given, settings, strategies as st

from repro.check import check_elision
from repro.check.elision import _check_empty, _check_ranges
from repro.check.report import CheckReport
from repro.config import (
    SchedulingModel,
    SpeculationPolicy,
    continuous_window_128,
)
from repro.config.presets import continuous_window_64
from repro.core.processor import Processor
from repro.core.vector import VectorProcessor
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.observe.bus import ObserverBus, ObserverSink
from repro.observe.stalls import StallAccountant
from repro.trace.dependences import compute_dependence_info
from repro.trace.events import Trace
from repro.trace.sampling import make_sampling_plan


# ---------------------------------------------------------------------------
# helpers: small design-space cells over random mini-traces
# ---------------------------------------------------------------------------

_CELLS = [
    ("NAS", policy) for policy in SpeculationPolicy
] + [
    ("AS", SpeculationPolicy.NO),
    ("AS", SpeculationPolicy.NAIVE),
    ("AS", SpeculationPolicy.ORACLE),
]


def _config(scheduling: str, policy, small: bool):
    preset = continuous_window_64 if small else continuous_window_128
    return preset(SchedulingModel(scheduling), policy)


_WORDS = st.integers(min_value=0, max_value=5)


@st.composite
def mini_traces(draw):
    """Interleaved stores/loads over a tiny address space + ALU filler."""
    length = draw(st.integers(min_value=1, max_value=40))
    instructions = []
    memory = {}
    for seq in range(length):
        kind = draw(st.sampled_from(("load", "store", "alu")))
        pc = 4 * (seq % 16)
        if kind == "store":
            addr = 0x1000 + 4 * draw(_WORDS)
            value = draw(st.integers(min_value=0, max_value=99))
            memory[addr] = value
            instructions.append(DynInst(
                seq=seq, pc=pc, op=OpClass.STORE, srcs=(1, 2),
                addr=addr, value=value,
            ))
        elif kind == "load":
            addr = 0x1000 + 4 * draw(_WORDS)
            instructions.append(DynInst(
                seq=seq, pc=pc, op=OpClass.LOAD, dest=3, srcs=(1,),
                addr=addr, value=memory.get(addr, 0),
            ))
        else:
            instructions.append(DynInst(
                seq=seq, pc=pc, op=OpClass.IALU,
                dest=draw(st.integers(min_value=1, max_value=6)),
                srcs=(1,),
            ))
    return Trace(name="elision-mini", instructions=tuple(instructions))


class _CycleRecorder(ObserverSink):
    """Records every cycle the reference core actually simulates."""

    def __init__(self):
        self.cycles = set()

    def on_cycle(self, processor):
        self.cycles.add(processor.cycle)


# ---------------------------------------------------------------------------
# unit tests for the helpers
# ---------------------------------------------------------------------------

def test_check_ranges_accepts_disjoint_ascending():
    report = CheckReport()
    _check_ranges([(3, 5), (9, 10)], 3, report)
    assert report.ok


def test_check_ranges_flags_sum_mismatch():
    report = CheckReport()
    _check_ranges([(3, 5)], 7, report)
    assert "elision-ranges" in report.counts


def test_check_ranges_flags_overlap_and_empty():
    report = CheckReport()
    _check_ranges([(3, 5), (4, 8)], 6, report)
    assert "elision-ranges" in report.counts
    report = CheckReport()
    _check_ranges([(5, 5)], 0, report)
    assert "elision-ranges" in report.counts


def test_check_empty_flags_activity_inside_range():
    report = CheckReport()
    _check_empty([(10, 14)], [2, 11, 30], report)
    assert "elision-nonempty" in report.counts
    report = CheckReport()
    _check_empty([(10, 14)], [2, 9, 14, 30], report)
    assert report.ok


# ---------------------------------------------------------------------------
# end-to-end: golden-style cells stay clean
# ---------------------------------------------------------------------------

def _benchmark_trace():
    from repro.workloads.catalog import get_trace

    return get_trace("126.gcc", 3000, 99)


def test_check_elision_clean_on_benchmark_cells():
    trace = _benchmark_trace()
    info = compute_dependence_info(trace)
    plan = make_sampling_plan(len(trace))
    for scheduling, policy, small in (
        ("NAS", SpeculationPolicy.NO, True),
        ("NAS", SpeculationPolicy.STORE_SETS, False),
        ("AS", SpeculationPolicy.NAIVE, False),
    ):
        report = check_elision(
            _config(scheduling, policy, small), trace,
            plan=plan, dep_info=info,
        )
        assert report.ok, report.to_dict()


def test_elided_cycles_cover_stall_accountant_gaps():
    """The conservation-law oracle, as a coverage claim.

    The reference core fast-forwards over idle stretches; the stall
    accountant charges those cycles full-width to wait causes. The
    vector core's event horizon must skip *at least* those cycles —
    macro-stepping additionally elides the empty probe cycle the
    reference walks after every active one, so the vector's skipped
    set covers the reference's gap set and may be strictly larger.
    """
    trace = _benchmark_trace()
    info = compute_dependence_info(trace)
    plan = make_sampling_plan(len(trace))
    config = _config("NAS", SpeculationPolicy.NO, True)

    vector = VectorProcessor(
        config, trace, info, elide=True, record_elisions=True
    )
    vres = vector.run(plan)
    ranges = vres.extra["elided_ranges"]
    assert vres.extra["skipped_cycles"] == sum(
        stop - start for start, stop in ranges
    )

    accountant = StallAccountant(config)
    recorder = _CycleRecorder()
    reference = Processor(
        config, trace, info,
        observer=ObserverBus([accountant, recorder]),
    )
    rres = reference.run(plan)
    assert vres.cycles == rres.cycles

    summary = accountant.summary()
    # Conservation: every slot is a commit or a charged stall.
    assert (
        summary["commit_slots"] + summary["stall_slots"]
        == summary["slots"]
    )
    # The vector skips at least what the reference fast-forwarded...
    assert vres.extra["skipped_cycles"] >= summary["skipped_cycles"]
    # ...and covers the reference's gap *set*, not just its size:
    # every cycle the reference never simulated is vector-elided
    # (macro-stepping only ever adds probe cycles to the skipped set).
    elided = set()
    for start, stop in ranges:
        elided.update(range(start, stop))
    simulated = recorder.cycles
    ref_gaps = set(range(min(simulated), max(simulated) + 1)) - simulated
    assert ref_gaps <= elided
    # No elided cycle lies outside the simulated span, and none of the
    # surplus (probe) cycles carried reference activity — check_elision
    # verifies schedulable-emptiness; here we pin the span.
    assert elided <= set(range(min(simulated), max(simulated) + 1))


# ---------------------------------------------------------------------------
# hypothesis property: random small design-space cells
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    trace=mini_traces(),
    cell=st.sampled_from(_CELLS),
    small=st.booleans(),
)
def test_property_elided_set_is_reference_gap_set(trace, cell, small):
    scheduling, policy = cell
    config = _config(scheduling, policy, small)
    info = compute_dependence_info(trace)
    plan = make_sampling_plan(len(trace))

    report = check_elision(config, trace, plan=plan, dep_info=info)
    assert report.ok, report.to_dict()

    vector = VectorProcessor(
        config, trace, info, elide=True, record_elisions=True
    )
    vres = vector.run(plan)

    accountant = StallAccountant(config)
    recorder = _CycleRecorder()
    reference = Processor(
        config, trace, info,
        observer=ObserverBus([accountant, recorder]),
    )
    reference.run(plan)

    summary = accountant.summary()
    assert (
        summary["commit_slots"] + summary["stall_slots"]
        == summary["slots"]
    )
    assert vres.extra["skipped_cycles"] >= summary["skipped_cycles"]
    elided = set()
    for start, stop in vres.extra["elided_ranges"]:
        elided.update(range(start, stop))
    simulated = recorder.cycles
    if simulated:
        span = set(range(min(simulated), max(simulated) + 1))
        assert (span - simulated) <= elided
        assert elided <= span
