"""Event-horizon elision soundness for the ``vector`` backend.

The vector core may advance its clock past cycles in which it proves no
state can change (see ``repro.core.vector``). Golden parity shows the
*aggregate* counters survive that shortcut; this module verifies the
*per-cycle* claim differentially against the reference core:

* **schedulable-empty** — re-run the same (config, trace, plan) on the
  reference core and record the cycle of every commit, issue, memory
  issue, dispatch and fetch. No recorded activity may fall inside any
  elided ``[start, stop)`` range: an elided cycle is one in which the
  reference core provably does nothing.
* **accounting** — the elided ranges must be disjoint, ascending, and
  sum exactly to the vector run's ``skipped_cycles`` counter, and both
  runs' :class:`~repro.core.result.SimResult` counters must match
  field-for-field (the same comparison the golden suite applies).

Together with the stall-conservation law (``commit_slots +
stall_slots == width × cycles``, charged by the
:class:`~repro.observe.stalls.StallAccountant` gap rule), this is the
soundness oracle the property suite leans on: every elided cycle is a
cycle the reference spent fully stalled, charged only to wait causes.
The vector core *macro-steps*: beyond the reference's own fast-forward
gaps it also elides the empty probe cycle the reference walks after
every active cycle, so its skipped set is a superset of the
accountant's ``skipped_cycles`` gap set — coverage, not equality, is
the invariant (see ``tests/test_check_elision.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.config.processor import ProcessorConfig
from repro.core.processor import Processor
from repro.core.result import SimResult
from repro.observe.bus import ObserverBus, ObserverSink
from repro.check.report import CheckReport
from repro.trace.sampling import SamplingPlan, make_sampling_plan

#: SimResult counters compared across the two runs (the golden-parity
#: field list; ``extra`` is deliberately excluded — it carries the
#: elision telemetry itself).
PARITY_FIELDS = (
    "cycles", "committed", "committed_loads", "committed_stores",
    "committed_branches", "misspeculations", "squashed_instructions",
    "false_dependence_loads", "true_dependence_loads",
    "false_dependence_latency", "branch_predictions",
    "branch_mispredictions", "load_forwards", "speculative_loads",
    "dcache_accesses", "dcache_misses", "icache_accesses",
    "icache_misses", "l2_accesses", "l2_misses",
)


class _ActivityRecorder(ObserverSink):
    """Records the cycle of every observable reference-core action."""

    def __init__(self) -> None:
        self.cycles: set = set()

    def raw_fetch(self, inst, cycle: int) -> None:
        self.cycles.add(cycle)

    def raw_dispatch(self, entry, cycle: int) -> None:
        self.cycles.add(cycle)

    def raw_issue(self, entry, cycle: int) -> None:
        self.cycles.add(cycle)

    def raw_mem_issue(self, entry, cycle: int, forwarded) -> None:
        self.cycles.add(cycle)

    def raw_squash(self, load, store, cycle, squashed, resume) -> None:
        self.cycles.add(cycle)

    def raw_replay(self, load, cycle, reexecuted) -> None:
        self.cycles.add(cycle)

    def raw_commit(self, entry, cycle: int) -> None:
        self.cycles.add(cycle)


def check_elision(
    config: ProcessorConfig,
    trace,
    plan: Optional[SamplingPlan] = None,
    dep_info=None,
    report: Optional[CheckReport] = None,
) -> CheckReport:
    """Differentially verify the vector core's elided-cycle claim.

    Runs the vector core with elision forced **on** and elision
    recording enabled, then the reference core with an activity
    recorder attached, and asserts every elided cycle is
    schedulable-empty. Violations land in *report* (a fresh
    :class:`CheckReport` is created when none is given) under the
    check ids ``elision-parity``, ``elision-ranges`` and
    ``elision-nonempty``.
    """
    if report is None:
        report = CheckReport()
    if plan is None:
        plan = make_sampling_plan(len(trace))

    from repro.core.vector import VectorProcessor

    vector = VectorProcessor(
        config, trace, dep_info, elide=True, record_elisions=True
    )
    vec_result = vector.run(plan)
    ranges: List[Tuple[int, int]] = list(
        vec_result.extra.get("elided_ranges", ())
    )

    recorder = _ActivityRecorder()
    reference = Processor(
        config, trace, dep_info, observer=ObserverBus([recorder])
    )
    ref_result = reference.run(plan)

    _check_parity(vec_result, ref_result, report)
    _check_ranges(
        ranges, vec_result.extra.get("skipped_cycles", 0), report
    )
    _check_empty(ranges, sorted(recorder.cycles), report)
    return report


def _check_empty(
    ranges: List[Tuple[int, int]],
    active: List[int],
    report: CheckReport,
) -> None:
    """No recorded activity cycle may fall inside an elided range."""
    for start, stop in ranges:
        index = bisect_left(active, start)
        if index < len(active) and active[index] < stop:
            report.add(
                "elision-nonempty", "elision",
                f"vector core elided cycles [{start}, {stop}) but the "
                f"reference core acted at cycle {active[index]}",
                cycle=active[index],
            )


def _check_parity(
    vec: SimResult, ref: SimResult, report: CheckReport
) -> None:
    for field in PARITY_FIELDS:
        got, want = getattr(vec, field), getattr(ref, field)
        if got != want:
            report.add(
                "elision-parity", "elision",
                f"SimResult field {field!r} diverged under elision: "
                f"vector {got}, reference {want}",
            )


def _check_ranges(
    ranges: List[Tuple[int, int]], skipped: int, report: CheckReport
) -> None:
    total = 0
    prev_stop = None
    for start, stop in ranges:
        if stop <= start or (prev_stop is not None and start < prev_stop):
            report.add(
                "elision-ranges", "elision",
                f"elided ranges not ascending/disjoint at "
                f"[{start}, {stop})",
                cycle=start,
            )
            return
        total += stop - start
        prev_stop = stop
    if total != skipped:
        report.add(
            "elision-ranges", "elision",
            f"elided ranges cover {total} cycles but the run reports "
            f"skipped_cycles={skipped}",
        )
