"""Cycle-attribution observability: event bus, stall accounting, export.

The simulator's :class:`~repro.core.result.SimResult` reports end-of-run
aggregates; this subsystem explains them. An :class:`ObserverBus`
attached to a :class:`~repro.core.Processor` is the reference core's
only instrumentation. It receives typed per-instruction lifecycle
events (fetch, dispatch, issue, mem-issue, blocked, squash, replay,
commit) from guarded hook points — every hook is an
``if self.observer is not None:`` branch, so a detached processor pays
nothing and stays bit-identical to the golden-parity fixtures.

Sinks consume the stream:

* :class:`StallAccountant` charges every non-committing commit slot to
  exactly one cause (``sum(causes) + commit_slots == width × cycles``)
  and keeps per-structure occupancy histograms.
* :class:`UtilisationSampler` keeps per-cycle histograms of window
  occupancy, instructions issued and memory ports used.
* :class:`PipelineRecorder` captures per-instruction stage timestamps
  for the ASCII :func:`pipeview`, Chrome ``trace_event`` and
  Konata-style exporters in :mod:`repro.observe.export`.

See docs/OBSERVABILITY.md for the event taxonomy, the stall-cause
definitions and the overhead methodology.
"""

from repro.observe.bus import (
    EVENT_NAMES,
    NullObserverSink,
    ObservedEvent,
    ObserverBus,
    default_observer,
)
from repro.observe.export import (
    PipelineRecorder,
    chrome_trace,
    konata_log,
    pipeview,
    validate_summary,
    write_summary,
)
from repro.observe.stalls import (
    STALL_CAUSES,
    OccupancyHistogram,
    StallAccountant,
    UtilisationSampler,
)

__all__ = [
    "EVENT_NAMES",
    "NullObserverSink",
    "ObservedEvent",
    "ObserverBus",
    "default_observer",
    "PipelineRecorder",
    "chrome_trace",
    "konata_log",
    "pipeview",
    "validate_summary",
    "write_summary",
    "STALL_CAUSES",
    "OccupancyHistogram",
    "StallAccountant",
    "UtilisationSampler",
]
