#!/usr/bin/env python
"""Machine utilisation under different speculation policies.

Samples per-cycle window occupancy, issue bandwidth and memory-port
usage with a :class:`UtilisationSampler` on the observer bus while the
same workload runs under NAS/NO and NAS/ORACLE, then prints both
utilisation reports. The contrast explains *where* the performance goes
under no speculation: the window fills with loads blocked behind
stores, and issue bandwidth sits idle.

Run::

    python examples/utilization.py [benchmark]
"""

import argparse

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core import Processor
from repro.observe import ObserverBus, UtilisationSampler
from repro.trace.dependences import compute_dependence_info
from repro.trace.sampling import SamplingPlan, Segment
from repro.workloads import get_trace


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

    for policy in (SpeculationPolicy.NO, SpeculationPolicy.ORACLE):
        config = continuous_window_128(SchedulingModel.NAS, policy)
        sampler = UtilisationSampler(config)
        result = Processor(
            config, trace, dep_info, observer=ObserverBus([sampler])
        ).run(plan)
        print(f"=== {config.label}  (IPC {result.ipc:.2f}) ===")
        print(sampler.render())
        print()


if __name__ == "__main__":
    main()
