"""repro — memory dependence speculation in continuous-window superscalars.

A from-scratch reproduction of Moshovos & Sohi, "Memory Dependence
Speculation Tradeoffs in Centralized, Continuous-Window Superscalar
Processors" (HPCA 2000): a cycle-level out-of-order simulator, the
paper's complete speculation-policy design space, a split-window
contrast model, calibrated SPEC'95 stand-in workloads, and a harness
regenerating every table and figure.

Quick use::

    from repro import (
        continuous_window_128, SchedulingModel, SpeculationPolicy,
        simulate, get_trace,
    )
    result = simulate(
        continuous_window_128(SchedulingModel.NAS,
                              SpeculationPolicy.SYNC),
        get_trace("102.swim", 26_000),
    )
    print(result.ipc)
"""

from repro.config import (
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
    config_name,
    continuous_window_128,
    continuous_window_64,
    split_window,
)
from repro.core import Processor, SimResult, simulate
from repro.observe import (
    ObserverBus,
    ObserverSink,
    PipelineRecorder,
    StallAccountant,
    default_observer,
)
from repro.splitwindow import simulate_split
from repro.trace.events import Trace
from repro.vm import run_program
from repro.workloads import (
    ALL_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    KERNEL_NAMES,
    get_trace,
    kernel_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ProcessorConfig",
    "SchedulingModel",
    "SpeculationPolicy",
    "config_name",
    "continuous_window_128",
    "continuous_window_64",
    "split_window",
    "Processor",
    "SimResult",
    "simulate",
    "ObserverBus",
    "ObserverSink",
    "PipelineRecorder",
    "StallAccountant",
    "default_observer",
    "simulate_split",
    "Trace",
    "run_program",
    "ALL_BENCHMARKS",
    "FP_BENCHMARKS",
    "INT_BENCHMARKS",
    "KERNEL_NAMES",
    "get_trace",
    "kernel_trace",
    "__version__",
]
