#!/usr/bin/env python
"""Watch individual instructions move through the pipeline.

Runs the dependence-free copy loop twice — under no speculation and
under oracle disambiguation — with a :class:`PipelineRecorder` on the
observer bus, and draws a window of committed instructions with
:func:`pipeview`. In the NAS/NO view each load sits in the LSQ (``-``
marks) until every older store has issued; under the oracle the same
loads go straight to memory.

Run::

    python examples/pipeline_view.py
"""

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core import Processor
from repro.observe import ObserverBus, PipelineRecorder, pipeview
from repro.workloads import kernel_trace


def main() -> None:
    trace = kernel_trace("memcopy", words=400)
    # Draw a slice from the middle of the run (steady state).
    start_seq = len(trace) // 2

    for policy in (SpeculationPolicy.NO, SpeculationPolicy.ORACLE):
        recorder = PipelineRecorder()
        config = continuous_window_128(SchedulingModel.NAS, policy)
        result = Processor(
            config, trace, observer=ObserverBus([recorder])
        ).run()
        records = [r for r in recorder.records if r.seq >= start_seq][:21]
        residency = sum(r.commit - r.dispatch for r in records) / len(records)
        print(f"=== {config.label}  (IPC {result.ipc:.2f}, "
              f"mean residency {residency:.1f} cycles) ===")
        print(pipeview(records, max_width=72))
        print()

    print(
        "Marks: D dispatch, I issue, - waiting in the LSQ, M memory "
        "access, = executing, C complete, R retire."
    )


if __name__ == "__main__":
    main()
