"""Zero-overhead-when-off event bus for processor observability.

The processor's hook points are all of the form::

    if observer is not None:
        observer.emit_issue(entry, cycle)

so the disabled path costs one attribute load and a ``None`` test per
site, which every untraced workload of the repository benchmark
(``bench/``) pays. When a bus *is* attached, each hook fans the
notification out to the registered sinks.

Sinks declare what they want:

* ``wants_events`` — receive an :class:`ObservedEvent` per lifecycle
  event via ``on_event``. Events are only materialised when at least
  one such sink is attached.
* ``wants_cycles`` — receive ``on_cycle(processor)`` at the end of
  every simulated cycle (after issue/dispatch/fetch) plus
  ``on_segment(processor)`` at each timing-segment start and
  ``on_squash(resume_cycle)`` on every violation squash.
* ``wants_raw`` — receive the live :class:`~repro.core.window.Entry`
  objects themselves (``raw_dispatch``/``raw_issue``/``raw_mem_issue``/
  ``raw_blocked``/``raw_squash``/``raw_replay``/``raw_commit`` plus
  ``raw_fetch(inst, cycle)``). This is the verification-grade feed:
  no event materialisation, no field copying — the sink sees exactly
  the state the processor sees. Raw fan-out happens before event
  materialisation and never touches ``events_emitted``, so attaching
  a raw sink cannot perturb the summary of other sinks.

The bus itself also keeps cheap named counters (:meth:`note`) and
high-water marks (:meth:`note_depth`) fed by structure-level hooks in
the LSQ pools, the store buffer and the address scheduler.
"""

from __future__ import annotations

from typing import Dict, List, Optional

# Event kinds (ints: sinks dispatch on ``event.kind``).
EV_FETCH = 0
EV_DISPATCH = 1
EV_ISSUE = 2
EV_MEM_ISSUE = 3
EV_BLOCKED = 4
EV_SQUASH = 5
EV_REPLAY = 6
EV_COMMIT = 7

EVENT_NAMES: Dict[int, str] = {
    EV_FETCH: "fetch",
    EV_DISPATCH: "dispatch",
    EV_ISSUE: "issue",
    EV_MEM_ISSUE: "mem-issue",
    EV_BLOCKED: "blocked",
    EV_SQUASH: "squash",
    EV_REPLAY: "replay",
    EV_COMMIT: "commit",
}


class ObservedEvent:
    """One per-instruction lifecycle notification."""

    __slots__ = ("kind", "cycle", "seq", "pc", "op", "info")

    def __init__(
        self,
        kind: int,
        cycle: int,
        seq: int,
        pc: int,
        op: str,
        info: Optional[dict] = None,
    ) -> None:
        self.kind = kind
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.op = op
        #: Kind-specific payload (see docs/OBSERVABILITY.md), or None.
        self.info = info

    @property
    def name(self) -> str:
        return EVENT_NAMES[self.kind]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ObservedEvent {self.name} seq={self.seq} "
            f"cycle={self.cycle}>"
        )


class NullObserverSink:
    """A sink that subscribes to everything and does nothing.

    Attaching a bus carrying only this sink exercises every hook path
    (including event materialisation) without perturbing anything —
    the observe-parity suite runs the golden cells this way and
    asserts bit-identical :class:`~repro.core.result.SimResult`s.
    """

    wants_events = True
    wants_cycles = True
    summary_key: Optional[str] = None

    def on_event(self, event: ObservedEvent) -> None:
        pass

    def on_cycle(self, processor) -> None:
        pass

    def on_segment(self, processor) -> None:
        pass

    def on_squash(self, resume_cycle: int) -> None:
        pass

    def summary(self) -> dict:
        return {}


class RawObserverSink:
    """No-op base for ``wants_raw`` sinks (override what you need).

    Raw callbacks receive live simulator objects; treat them as
    strictly read-only — mutating an :class:`Entry` from a sink would
    change simulated behaviour.
    """

    wants_raw = True
    wants_events = False
    wants_cycles = False
    summary_key: Optional[str] = None

    def raw_fetch(self, inst, cycle: int) -> None:
        pass

    def raw_dispatch(self, entry, cycle: int) -> None:
        pass

    def raw_issue(self, entry, cycle: int) -> None:
        pass

    def raw_mem_issue(self, entry, cycle: int, forwarded: bool) -> None:
        pass

    def raw_blocked(self, entry, cycle: int, cause) -> None:
        pass

    def raw_squash(
        self, load, store, cycle: int, squashed: int, resume: int
    ) -> None:
        pass

    def raw_replay(self, load, cycle: int, reexecuted: int) -> None:
        pass

    def raw_commit(self, entry, cycle: int) -> None:
        pass

    def summary(self) -> dict:
        return {}


class ObserverBus:
    """Fans processor hook notifications out to observer sinks."""

    def __init__(self, sinks=()) -> None:
        self._sinks: List = []
        self._event_sinks: List = []
        self._cycle_sinks: List = []
        self._raw_sinks: List = []
        #: Named structure-level counters (store-buffer forwards,
        #: address-scheduler posts, ...).
        self.counters: Dict[str, int] = {}
        #: Named structure high-water marks (peak pool depths).
        self.high_water: Dict[str, int] = {}
        self.events_emitted = 0
        for sink in sinks:
            self.add_sink(sink)

    def add_sink(self, sink) -> None:
        self._sinks.append(sink)
        if getattr(sink, "wants_events", False):
            self._event_sinks.append(sink)
        if getattr(sink, "wants_cycles", False):
            self._cycle_sinks.append(sink)
        if getattr(sink, "wants_raw", False):
            self._raw_sinks.append(sink)

    # -- lifecycle events (hook API; one method per hook point) ----------

    def _emit(
        self, kind: int, cycle: int, seq: int, pc: int, op, info
    ) -> None:
        """Count one event; build it only if an event sink takes it.

        *op* is the :class:`~repro.isa.opcodes.OpClass`: its ``name``
        (an ``Enum`` property) is read only for a built event. Callers
        with an ``info`` payload build it only when ``_event_sinks`` is
        non-empty and pass None otherwise.
        """
        self.events_emitted += 1
        sinks = self._event_sinks
        if not sinks:
            return
        event = ObservedEvent(kind, cycle, seq, pc, op.name, info)
        for sink in sinks:
            sink.on_event(event)

    def emit_fetch(self, inst, cycle: int) -> None:
        if self._raw_sinks:
            for sink in self._raw_sinks:
                sink.raw_fetch(inst, cycle)
        self._emit(EV_FETCH, cycle, inst.seq, inst.pc, inst.op, None)

    def emit_dispatch(self, entry, cycle: int) -> None:
        if self._raw_sinks:
            for sink in self._raw_sinks:
                sink.raw_dispatch(entry, cycle)
        inst = entry.inst
        self._emit(EV_DISPATCH, cycle, entry.seq, inst.pc, inst.op, None)

    def emit_issue(self, entry, cycle: int) -> None:
        if self._raw_sinks:
            for sink in self._raw_sinks:
                sink.raw_issue(entry, cycle)
        inst = entry.inst
        self._emit(EV_ISSUE, cycle, entry.seq, inst.pc, inst.op, None)

    def emit_mem_issue(
        self, entry, cycle: int, forwarded: bool
    ) -> None:
        if self._raw_sinks:
            for sink in self._raw_sinks:
                sink.raw_mem_issue(entry, cycle, forwarded)
        inst = entry.inst
        self._emit(
            EV_MEM_ISSUE, cycle, entry.seq, inst.pc, inst.op,
            {"forwarded": forwarded} if self._event_sinks else None,
        )

    def emit_blocked(self, entry, cycle: int, cause) -> None:
        if self._raw_sinks:
            for sink in self._raw_sinks:
                sink.raw_blocked(entry, cycle, cause)
        inst = entry.inst
        self._emit(
            EV_BLOCKED, cycle, entry.seq, inst.pc, inst.op,
            {"cause": cause} if self._event_sinks else None,
        )

    def emit_squash(
        self, load, store, cycle: int, squashed: int, resume: int
    ) -> None:
        if self._raw_sinks:
            for sink in self._raw_sinks:
                sink.raw_squash(load, store, cycle, squashed, resume)
        inst = load.inst
        self._emit(
            EV_SQUASH, cycle, load.seq, inst.pc, inst.op,
            {
                "store_seq": store.seq,
                "squashed": squashed,
                "resume": resume,
            } if self._event_sinks else None,
        )
        for sink in self._cycle_sinks:
            sink.on_squash(resume)

    def emit_replay(self, load, cycle: int, reexecuted: int) -> None:
        if self._raw_sinks:
            for sink in self._raw_sinks:
                sink.raw_replay(load, cycle, reexecuted)
        inst = load.inst
        self._emit(
            EV_REPLAY, cycle, load.seq, inst.pc, inst.op,
            {"reexecuted": reexecuted} if self._event_sinks else None,
        )

    def emit_commit(self, entry, cycle: int) -> None:
        if self._raw_sinks:
            for sink in self._raw_sinks:
                sink.raw_commit(entry, cycle)
        self.events_emitted += 1
        sinks = self._event_sinks
        if not sinks:
            return
        inst = entry.inst
        event = ObservedEvent(
            EV_COMMIT, cycle, entry.seq, inst.pc, inst.op.name,
            {
                "dispatch": entry.dispatch_cycle,
                "issue": entry.issue_cycle,
                "mem_issue": entry.mem_issue_cycle,
                "done": (
                    entry.write_cycle if entry.is_store
                    else entry.complete_cycle
                ),
            },
        )
        for sink in sinks:
            sink.on_event(event)

    # -- structure-level hooks -------------------------------------------

    def note(self, name: str) -> None:
        """Bump a named counter (store-buffer forward, scheduler post...)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + 1

    def note_depth(self, name: str, depth: int) -> None:
        """Track the high-water occupancy of a named structure."""
        high = self.high_water
        if depth > high.get(name, -1):
            high[name] = depth

    # -- cycle / segment fan-out -----------------------------------------

    def begin_segment(self, processor) -> None:
        """A timing segment starts (fresh window, pools, stats)."""
        for sink in self._cycle_sinks:
            sink.on_segment(processor)

    def end_cycle(self, processor) -> None:
        """The per-cycle loop iteration at ``processor.cycle`` ended."""
        for sink in self._cycle_sinks:
            sink.on_cycle(processor)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-serialisable roll-up of the bus and every sink."""
        out = {
            "events": self.events_emitted,
            "counters": dict(self.counters),
            "high_water": dict(self.high_water),
        }
        for sink in self._sinks:
            key = getattr(sink, "summary_key", None)
            if key:
                out[key] = sink.summary()
        return out


def default_observer(config) -> ObserverBus:
    """The standard bus for ``config.observe`` runs: stall accounting.

    Trace recording (:class:`~repro.observe.export.PipelineRecorder`)
    is opt-in — it retains per-instruction records — so the default
    bus carries only the (bounded-memory) stall accountant.
    """
    from repro.observe.stalls import StallAccountant

    return ObserverBus([StallAccountant(config)])
