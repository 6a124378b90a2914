"""The process one benchmark repetition runs in.

``child.py cli --out F (--spans S [--split] | --meter) -- ARGS`` runs
``repro-experiments ARGS``. With ``--spans`` every layer is traced;
``--split`` says the run simulates split-window cells, so the
event-driven engine is loaded to be traced. With ``--meter`` (a timed
repetition) the child probes the host's speed (``speed.Meter``) at its
start and around every ``run_benchmark`` call, and notes when the
first artifact starts: the end of set-up.

``child.py sweep --out F [--spans S | --meter] [--backend vector]
--seed N --timing T --warmup W`` is the ``core-sweep`` client: it
acquires the traces of :data:`BENCHMARKS` (its set-up), then calls
``run_benchmark`` once per (design, benchmark) cell with the result
store off.

Both write a JSON report to ``--out``: the runner and catalog
counters, when set-up ended (monotonic ns), the probes of a metered
child, and for the sweep every exported counter of each cell.
``BENCH_LAUNCH_NS`` in the environment is the parent's
``time.monotonic_ns()`` at launch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: All 18 SPEC'95 stand-ins (``repro.workloads.spec95.ALL_BENCHMARKS``).
#: Fewer would let the seed move the sweep's simulated work more: eight
#: of them vary by 8% in total cycles between seeds, all 18 by 5%.
BENCHMARKS = (
    "099.go", "124.m88ksim", "126.gcc", "129.compress", "130.li",
    "132.ijpeg", "134.perl", "147.vortex", "101.tomcatv", "102.swim",
    "103.su2cor", "104.hydro2d", "107.mgrid", "110.applu", "125.turb3d",
    "141.apsi", "145.fpppp", "146.wave5",
)

#: Seven of the 14 continuous-window design points the CLI pre-warms,
#: as ``(window, scheduling, policy, address-scheduler latency)``: each
#: of the six policies, and the address scheduler at its longest
#: latency. Half the designs at three times the length cut processor
#: construction from a third of the sweep to a sixth.
DESIGNS = tuple(
    [(128, "NAS", policy, 0)
     for policy in ("NO", "NAV", "SEL", "STORE", "SYNC", "ORACLE")]
    + [(128, "AS", "NAV", 2)]
)


def design_label(window: int, scheduling: str, policy: str,
                 latency: int) -> str:
    return f"w{window} {scheduling}/{policy}+{latency}"


def cell_names() -> list:
    """``benchmark/design`` of every sweep cell, in run order."""
    return [f"{name}/{design_label(*design)}"
            for design in DESIGNS for name in BENCHMARKS]


def _config(window: int, scheduling: str, policy: str, latency: int):
    from repro.config import (
        SchedulingModel, SpeculationPolicy, continuous_window_64,
        continuous_window_128,
    )

    factory = {64: continuous_window_64, 128: continuous_window_128}[window]
    return factory(SchedulingModel(scheduling), SpeculationPolicy(policy),
                   latency)


def _counters() -> dict:
    from dataclasses import asdict

    from repro.experiments.runner import cache_stats
    from repro.workloads.catalog import trace_stats

    return {"cache": asdict(cache_stats()), "trace": asdict(trace_stats())}


def _sweep(args, recorder, meter) -> dict:
    from repro.experiments.export import result_row
    from repro.experiments.runner import ExperimentSettings, run_benchmark
    from repro.experiments.store import set_store
    from repro.workloads.catalog import (
        get_compiled, get_dependence_info, get_trace,
    )

    set_store(None)
    settings = ExperimentSettings(args.timing, args.warmup, args.seed)
    length = settings.trace_length

    span = recorder.open("setup.traces") if recorder else None
    for name in BENCHMARKS:
        if meter:
            meter.tick()
        if args.backend == "vector":
            get_compiled(name, length, args.seed)
        else:
            get_dependence_info(get_trace(name, length, args.seed))
    setup_end = time.monotonic_ns()
    if span:
        recorder.close(span)

    cells = []
    span = recorder.open("sweep") if recorder else None
    for design in DESIGNS:
        config = _config(*design)
        for name in BENCHMARKS:
            if meter:
                meter.tick()
            result = run_benchmark(name, config, settings,
                                   backend=args.backend)
            cells.append({"cell": f"{name}/{design_label(*design)}",
                          "row": result_row(result)})
    if span:
        recorder.close(span)
    return {"setup_end_ns": setup_end, "cells": cells}


def _install_meter(meter, report: dict):
    """Probe around every ``run_benchmark`` call and every CLI artifact,
    and stamp ``report["setup_end_ns"]`` when the first artifact starts.
    Returns the :class:`tracing.Tracing` that undoes it."""
    import functools

    from repro.experiments import cli, runner
    from tracing import Tracing, replace_everywhere

    def ticking(fn, first=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if first:
                report.setdefault("setup_end_ns", time.monotonic_ns())
            meter.tick()
            try:
                return fn(*args, **kwargs)
            finally:
                meter.tick()

        return wrapper

    undo = Tracing()
    original = runner.run_benchmark
    replace_everywhere(undo, original, ticking(original))
    for key, fn in list(cli.ARTIFACTS.items()):
        undo.replace(cli.ARTIFACTS, key, ticking(fn, first=True))
    return undo


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    cli_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("cli", "sweep"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timing", type=int, default=0)
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--split", action="store_true",
                        help="the CLI run simulates split-window cells")
    parser.add_argument("--meter", action="store_true",
                        help="probe the host's speed (a timed repetition)")
    args = parser.parse_args(argv)
    launch_ns = int(os.environ["BENCH_LAUNCH_NS"])

    report: dict = {}
    recorder = tracing = meter = None
    if args.meter:
        import speed

        meter = speed.Meter()
        if args.mode == "cli":
            tracing = _install_meter(meter, report)
    elif args.spans:
        import tracing as tracing_mod

        # Load what this run calls before wrapping. The runner imports
        # the event-driven and vector cores lazily, so each is loaded
        # only for a workload that runs it (``--split``, or the sweep's
        # vector pass); the untraced program never imports the others.
        if args.mode == "cli":
            if args.split:
                import repro.eventsim.splitwindow  # noqa: F401
            import repro.experiments.cli  # noqa: F401
        else:
            import repro.experiments.export  # noqa: F401
            import repro.experiments.runner  # noqa: F401
            if args.backend == "vector":
                import repro.core.vector  # noqa: F401

        recorder = tracing_mod.Recorder(args.workload)
        tracing = tracing_mod.install(recorder)
        recorder.add("startup", launch_ns, time.monotonic_ns())

    code = 0
    try:
        if args.mode == "sweep":
            report.update(_sweep(args, recorder, meter))
        else:
            from repro.experiments import cli

            span = recorder.open("cli.main") if recorder else None
            try:
                code = cli.main(cli_args)
            finally:
                if span:
                    recorder.close(span)
    finally:
        if tracing is not None:
            tracing.restore()
    if meter is not None:
        meter.tick()
        report["probes"] = meter.probes
    report["stats"] = _counters()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    if recorder is not None:
        tracing_mod.write_spans(args.spans, recorder)
    return code


if __name__ == "__main__":
    sys.exit(main())
