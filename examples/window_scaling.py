#!/usr/bin/env python
"""Window-size scaling: how the value of load/store parallelism grows.

Figure 1 of the paper compares 64- and 128-entry windows; this example
extends the sweep (32..256 entries) and reports the NAS/ORACLE-over-
NAS/NO speedup at each size — the paper's observation is that the
speedup *grows* with the window, because false dependences accumulate
with every additional in-flight store.

Run::

    python examples/window_scaling.py [benchmark]
"""

import argparse
from dataclasses import replace

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.config.processor import WindowConfig
from repro.core import Processor
from repro.stats.format import render_table
from repro.trace.dependences import compute_dependence_info
from repro.trace.sampling import SamplingPlan, Segment
from repro.workloads import get_trace


def _window(size: int) -> WindowConfig:
    """Scale issue resources with the window, as the paper's 64-entry
    machine does (half the window -> half the width/ports/units)."""
    scale = max(1, size // 32)
    return WindowConfig(
        size=size,
        issue_width=min(8, 2 * scale),
        memory_ports=min(4, scale),
        fu_copies=min(8, 2 * scale),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="101.tomcatv")
    parser.add_argument("--length", type=int, default=22_000)
    args = parser.parse_args()

    trace = get_trace(args.benchmark, args.length)
    dep_info = compute_dependence_info(trace)
    warm = min(8_000, len(trace) // 3)
    plan = SamplingPlan(
        (Segment(0, warm, timing=False),
         Segment(warm, len(trace), timing=True)),
        len(trace),
    )

    rows = []
    for size in (32, 64, 128, 256):
        ipcs = {}
        for policy in (SpeculationPolicy.NO, SpeculationPolicy.ORACLE):
            config = replace(
                continuous_window_128(SchedulingModel.NAS, policy),
                window=_window(size),
            )
            ipcs[policy] = Processor(config, trace, dep_info).run(plan).ipc
        speedup = ipcs[SpeculationPolicy.ORACLE] / ipcs[
            SpeculationPolicy.NO
        ]
        rows.append((
            size,
            f"{ipcs[SpeculationPolicy.NO]:.2f}",
            f"{ipcs[SpeculationPolicy.ORACLE]:.2f}",
            f"{speedup - 1:+.1%}",
        ))

    print(f"benchmark: {trace.name}")
    print(render_table(
        ("window", "NAS/NO IPC", "NAS/ORACLE IPC", "oracle speedup"),
        rows,
    ))


if __name__ == "__main__":
    main()
