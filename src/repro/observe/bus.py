"""Zero-overhead-when-off observer bus for processor observability.

The processor's hook points are all of the form::

    if observer is not None:
        observer.emit_issue(entry, cycle)

so the disabled path costs one attribute load and a ``None`` test per
site, which every untraced workload of the repository benchmark
(``bench/``) pays. When a bus *is* attached, each ``emit_*`` counts one
event and calls the matching hook (``raw_issue(entry, cycle)`` for
``emit_issue``) of every sink that takes it, in registration order,
with the live objects the processor passes; ``begin_segment`` and
``end_cycle`` call ``on_segment`` and ``on_cycle``.

A sink takes exactly the hooks its class overrides: :class:`ObserverSink`
defines each as a no-op, and :meth:`ObserverBus.add_sink` binds, once,
every hook the sink's class defines differently (a duck-typed sink
takes every hook it defines). No hook builds an object or copies a
field, and no sink can change the event count.

The bus itself also keeps cheap named counters (:meth:`note`) and
high-water marks (:meth:`note_depth`) fed by structure-level hooks in
the LSQ pools, the store buffer and the address scheduler.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

#: Every hook a sink can take, as :class:`ObserverSink` names them.
HOOKS = (
    "on_segment", "on_cycle", "raw_fetch", "raw_dispatch", "raw_issue",
    "raw_mem_issue", "raw_blocked", "raw_squash", "raw_replay",
    "raw_commit",
)


class ObserverSink:
    """No-op base for observer sinks: override the hooks you need.

    ``on_segment`` runs at each timing-segment start, ``on_cycle`` at
    the end of every simulated cycle (after issue, dispatch and fetch),
    and each ``raw_*`` hook once per lifecycle event. Hooks receive
    live simulator objects; treat them as strictly read-only — mutating
    an :class:`Entry` from a sink would change simulated behaviour.
    """

    summary_key: Optional[str] = None

    def on_segment(self, processor) -> None:
        pass

    def on_cycle(self, processor) -> None:
        pass

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
        #: Hook name -> the bound hooks of the sinks that take it, in
        #: registration order.
        self._hooks: Dict[str, List[Callable]] = {
            name: [] for name in HOOKS
        }
        #: Named structure-level counters (store-buffer forwards,
        #: address-scheduler posts, ...).
        self.counters: Dict[str, int] = {}
        #: Named structure high-water marks (peak pool depths).
        self.high_water: Dict[str, int] = {}
        self.events_emitted = 0
        for sink in sinks:
            self.add_sink(sink)

    def add_sink(self, sink) -> None:
        """Register *sink* for every hook its class overrides."""
        self._sinks.append(sink)
        cls = type(sink)
        for name, hooks in self._hooks.items():
            hook = getattr(cls, name, None)
            if hook is not None and hook is not getattr(ObserverSink, name):
                hooks.append(getattr(sink, name))

    # -- lifecycle events (hook API; one method per hook point) ----------

    def emit_fetch(self, inst, cycle: int) -> None:
        self.events_emitted += 1
        for hook in self._hooks["raw_fetch"]:
            hook(inst, cycle)

    def emit_dispatch(self, entry, cycle: int) -> None:
        self.events_emitted += 1
        for hook in self._hooks["raw_dispatch"]:
            hook(entry, cycle)

    def emit_issue(self, entry, cycle: int) -> None:
        self.events_emitted += 1
        for hook in self._hooks["raw_issue"]:
            hook(entry, cycle)

    def emit_mem_issue(
        self, entry, cycle: int, forwarded: bool
    ) -> None:
        self.events_emitted += 1
        for hook in self._hooks["raw_mem_issue"]:
            hook(entry, cycle, forwarded)

    def emit_blocked(self, entry, cycle: int, cause) -> None:
        self.events_emitted += 1
        for hook in self._hooks["raw_blocked"]:
            hook(entry, cycle, cause)

    def emit_squash(
        self, load, store, cycle: int, squashed: int, resume: int
    ) -> None:
        self.events_emitted += 1
        for hook in self._hooks["raw_squash"]:
            hook(load, store, cycle, squashed, resume)

    def emit_replay(self, load, cycle: int, reexecuted: int) -> None:
        self.events_emitted += 1
        for hook in self._hooks["raw_replay"]:
            hook(load, cycle, reexecuted)

    def emit_commit(self, entry, cycle: int) -> None:
        self.events_emitted += 1
        for hook in self._hooks["raw_commit"]:
            hook(entry, cycle)

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
        for hook in self._hooks["on_segment"]:
            hook(processor)

    def end_cycle(self, processor) -> None:
        """The per-cycle loop iteration at ``processor.cycle`` ended."""
        for hook in self._hooks["on_cycle"]:
            hook(processor)

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
