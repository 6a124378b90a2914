"""Commit-stream differential checker.

An observer sink that replays every committed instruction against
functional references and reports any architectural divergence:

* **commit order** — committed seqs must walk each timing segment
  contiguously from the segment's start (duplicates, skips and
  out-of-order commits all diverge from the functional program order);
* **trace identity** — the committed :class:`DynInst` must be the
  trace's instruction for that seq, and (when an independently
  regenerated reference trace is supplied) must match it field by
  field — pc, operands, effective address, value, branch outcome;
* **shadow memory** — committed stores are applied to a word-granular
  shadow image and every committed load's value is checked against it;
* **forwarded values** — a load that forwarded from the store buffer
  must name an older committed store that fully covers its access and
  carries the same value;
* **stale loads** — a load that read memory before its producing store
  wrote (and was neither forwarded from that store, silently-equal,
  nor corrected afterwards) means a squash/replay was skipped;
* **PC continuity** — within a segment, each committed pc must follow
  from its predecessor (branch target, else pc+4). Enabled only when
  a prescan proves the trace itself has the property, so hand-built
  discontinuous traces don't false-positive;
* **lifecycle sanity** — a committed entry must actually be done
  (write/complete cycle at or before the commit cycle, issue after
  dispatch).

The checker recomputes its own dependence map with
:func:`repro.trace.dependences.compute_dependence_info` rather than
trusting the one handed to the processor, so a corrupted dependence
analysis cannot vouch for itself.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observe.bus import ObserverSink
from repro.check.reference import ShadowMemory, diff_instructions
from repro.check.report import CheckReport, StoreRecord
from repro.trace.dependences import compute_dependence_info
from repro.trace.events import Trace


def _trace_is_pc_continuous(trace: Trace) -> bool:
    """Does every instruction follow its predecessor's control flow?"""
    instructions = trace.instructions
    for index in range(1, len(instructions)):
        prev = instructions[index - 1]
        expect = prev.target if prev.is_branch else prev.pc + 4
        if expect is None or instructions[index].pc != expect:
            return False
    return True


class DifferentialChecker(ObserverSink):
    """Replays the commit stream against the functional reference."""

    summary_key = "differential"

    def __init__(
        self,
        trace: Trace,
        report: CheckReport,
        reference_trace: Optional[Trace] = None,
    ) -> None:
        self.trace = trace
        self.report = report
        self.reference = reference_trace
        if reference_trace is not None and (
            len(reference_trace) != len(trace)
        ):
            report.add(
                "reference-length", "differential",
                f"trace has {len(trace)} instructions but the "
                f"regenerated reference has {len(reference_trace)}",
            )
            self.reference = None
        self._info = compute_dependence_info(trace)
        self._shadow = ShadowMemory()
        self._stores: Dict[int, StoreRecord] = {}
        self._check_pc = _trace_is_pc_continuous(trace)
        self._expect: Optional[int] = None
        self._seg_stop: Optional[int] = None
        self._prev_inst = None
        self._as_mode = False
        self.commits_checked = 0

    # -- segment boundaries ------------------------------------------------

    def on_segment(self, processor) -> None:
        self._as_mode = processor.as_mode
        cursor = processor.cursor
        if self._seg_stop is not None and self._expect != self._seg_stop:
            self.report.add(
                "segment-commit-count", "differential",
                f"previous timing segment committed up to seq "
                f"{self._expect} but its boundary was {self._seg_stop}",
            )
        self._expect = cursor.position
        self._seg_stop = cursor.stop
        self._prev_inst = None

    def finalize(self) -> None:
        """Close out the last timing segment (call after ``run()``)."""
        if self._seg_stop is not None and self._expect != self._seg_stop:
            self.report.add(
                "segment-commit-count", "differential",
                f"final timing segment committed up to seq "
                f"{self._expect} but its boundary was {self._seg_stop}",
            )
        self._seg_stop = None

    # -- the commit stream -------------------------------------------------

    def raw_commit(self, entry, cycle: int) -> None:
        report = self.report
        self.commits_checked += 1
        seq = entry.seq
        inst = entry.inst

        # Commit order: contiguous program order within the segment.
        if self._expect is None:
            report.add(
                "commit-order", "differential",
                f"commit of seq {seq} outside any timing segment",
                cycle=cycle, seq=seq,
            )
        elif seq != self._expect:
            report.add(
                "commit-order", "differential",
                f"committed seq {seq} but program order expects "
                f"{self._expect}",
                cycle=cycle, seq=seq,
            )
        # Resync so one slip does not cascade into thousands of reports.
        self._expect = seq + 1

        # Trace identity + reference-trace field comparison.
        if 0 <= seq < len(self.trace):
            if inst is not self.trace.instructions[seq]:
                report.add(
                    "trace-identity", "differential",
                    f"committed entry for seq {seq} does not carry the "
                    f"trace's instruction object",
                    cycle=cycle, seq=seq,
                )
            if self.reference is not None:
                ref = self.reference.instructions[seq]
                for field, got, want in diff_instructions(inst, ref):
                    report.add(
                        "reference-divergence", "differential",
                        f"seq {seq} field {field!r}: simulated trace has "
                        f"{got!r}, functional reference has {want!r}",
                        cycle=cycle, seq=seq,
                    )
        else:
            report.add(
                "commit-order", "differential",
                f"committed seq {seq} is outside the trace "
                f"(0..{len(self.trace) - 1})",
                cycle=cycle, seq=seq,
            )

        # Lifecycle sanity: the entry must actually be finished.
        done = entry.write_cycle if entry.is_store else entry.complete_cycle
        if done is None or done > cycle:
            report.add(
                "commit-unfinished", "differential",
                f"seq {seq} committed at cycle {cycle} but its done "
                f"cycle is {done}",
                cycle=cycle, seq=seq,
            )
        if entry.issue_cycle is not None and (
            entry.issue_cycle < entry.dispatch_cycle
        ):
            report.add(
                "lifecycle-order", "differential",
                f"seq {seq} issued at {entry.issue_cycle} before its "
                f"dispatch at {entry.dispatch_cycle}",
                cycle=cycle, seq=seq,
            )

        # PC continuity inside the segment.
        prev = self._prev_inst
        if self._check_pc and prev is not None:
            expect_pc = prev.target if prev.is_branch else prev.pc + 4
            if inst.pc != expect_pc:
                report.add(
                    "pc-continuity", "differential",
                    f"seq {seq} committed pc {inst.pc:#x} but control "
                    f"flow from seq {prev.seq} leads to {expect_pc:#x}",
                    cycle=cycle, seq=seq,
                )
        self._prev_inst = inst

        if entry.is_store:
            self._commit_store(entry, inst, cycle)
        elif entry.is_load:
            self._commit_load(entry, inst, cycle)

    # -- stores ------------------------------------------------------------

    def _commit_store(self, entry, inst, cycle: int) -> None:
        self._shadow.store(inst.addr, inst.size, inst.value)
        self._stores[entry.seq] = StoreRecord(
            seq=entry.seq,
            addr=inst.addr,
            size=inst.size,
            value=inst.value,
            write_cycle=entry.write_cycle,
            commit_cycle=cycle,
        )

    # -- loads -------------------------------------------------------------

    def _commit_load(self, entry, inst, cycle: int) -> None:
        report = self.report
        seq = entry.seq

        # Shadow-memory value check.
        expected = self._shadow.load(inst.addr, inst.size, inst.value)
        if expected is not None and inst.value is not None and (
            expected != inst.value
        ):
            report.add(
                "shadow-memory", "differential",
                f"load seq {seq} at addr {inst.addr:#x} carries value "
                f"{inst.value} but the committed store stream left "
                f"{expected}",
                cycle=cycle, seq=seq,
            )

        # Forwarded-value check.
        fwd = entry.forwarded_from
        if fwd is not None:
            rec = self._stores.get(fwd)
            if rec is None:
                report.add(
                    "forward-source", "differential",
                    f"load seq {seq} forwarded from store {fwd} which "
                    f"never committed",
                    cycle=cycle, seq=seq,
                )
            else:
                if fwd >= seq:
                    report.add(
                        "forward-source", "differential",
                        f"load seq {seq} forwarded from younger store "
                        f"{fwd}",
                        cycle=cycle, seq=seq,
                    )
                covers = (
                    rec.addr <= inst.addr
                    and inst.addr + inst.size <= rec.addr + rec.size
                )
                if not covers:
                    report.add(
                        "forward-coverage", "differential",
                        f"load seq {seq} [{inst.addr:#x}+{inst.size}] "
                        f"forwarded from store {fwd} "
                        f"[{rec.addr:#x}+{rec.size}] which does not "
                        f"cover it",
                        cycle=cycle, seq=seq,
                    )
                elif rec.value is not None and inst.value is not None and (
                    rec.value != inst.value
                ):
                    report.add(
                        "forward-value", "differential",
                        f"load seq {seq} expects value {inst.value} but "
                        f"forwarded store {fwd} wrote {rec.value}",
                        cycle=cycle, seq=seq,
                    )

        # Stale-load check: a premature read that escaped recovery.
        # The committed entry is the *final* execution of that seq, so
        # under NAS any commit still carrying a pre-write read (and not
        # forwarded from the producer) means the squash/replay that
        # should have re-executed it was skipped. Under AS, hardware
        # may legitimately keep a premature read when no consumer saw
        # the stale value (silent re-forward) or when a silent store
        # made the stale value correct — so the checker replays the
        # paper's propagation condition over the load's consumers.
        info = self._info.get(seq)
        if info is None:
            return
        rec = self._stores.get(info.store_seq)
        if rec is None or rec.write_cycle is None:
            return  # Producer outside the simulated timing segments.
        mem_issue = entry.mem_issue_cycle
        if mem_issue is None or mem_issue >= rec.write_cycle:
            return  # Read at/after the producer's write: never stale.
        if fwd == info.store_seq:
            return  # Forwarded the correct value from the producer.
        if self._as_mode:
            if info.stale_equal:
                return  # Silent store: stale value was correct anyway.
            propagated = any(
                not waiter.squashed
                and waiter.issue_cycle is not None
                and waiter.issue_cycle <= rec.write_cycle
                for waiter, _ in (*entry.consumers, *entry.waiters)
            )
            if not propagated:
                return  # Silent re-forward: no consumer saw the value.
        report.add(
            "stale-load", "differential",
            f"load seq {seq} read at cycle {mem_issue}, before its "
            f"producing store {info.store_seq} wrote at "
            f"{rec.write_cycle}, and was never squashed, replayed or "
            f"forwarded (miss-speculation escaped recovery)",
            cycle=cycle, seq=seq,
        )

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "commits_checked": self.commits_checked,
            "shadow_checked_loads": self._shadow.checked_loads,
            "shadow_adopted_words": self._shadow.adopted,
            "reference_attached": self.reference is not None,
            "pc_check_enabled": self._check_pc,
            "violations": self.report.counts.copy(),
        }
