"""Command-line entry point: ``repro-experiments <artifact> [...]``.

Examples::

    repro-experiments table3
    repro-experiments figure1 figure2 --quick
    repro-experiments all --timing 20000 --warmup 12000
    repro-experiments all --store ~/.cache/repro-results --parallel 8
    repro-experiments all --trace-store ~/.cache/repro-traces
    repro-experiments cache            # inspect result + trace stores
    repro-experiments status run.jsonl # summarize a telemetry stream
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

from repro.experiments import ablations, figures, tables
from repro.experiments.ablations import (
    ablation_predictors,
    ablation_recovery,
    ablation_split_geometry,
    ablation_squash_penalty,
    ablation_window,
)
from repro.experiments.figures import (
    figure1, figure2, figure3, figure4, figure5, figure6, figure7,
    figure7_sweep, summary_findings,
)
from repro.experiments.runner import Cells, ExperimentSettings
from repro.experiments.tables import table1, table3, table4, table_stalls

ARTIFACTS: Dict[str, Callable] = {
    "table1": table1,
    "table3": table3,
    "table4": table4,
    "stalls": table_stalls,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure7-sweep": figure7_sweep,
    "summary": summary_findings,
    "ablation-recovery": ablation_recovery,
    "ablation-predictors": ablation_predictors,
    "ablation-window": ablation_window,
    "ablation-squash": ablation_squash_penalty,
    "ablation-split": ablation_split_geometry,
}

#: The cells each simulating artifact requests, declared next to its
#: renderer. A run is planned from them before its first artifact;
#: artifacts still request cells through ``run_benchmark``, so a
#: missing declaration costs a simulation, never a wrong number.
CELLS: Dict[str, Callable[[], Cells]] = {
    "table3": tables.table3_cells,
    "table4": tables.table4_cells,
    "stalls": tables.table_stalls_cells,
    "figure1": figures.figure1_cells,
    "figure2": figures.figure2_cells,
    "figure3": figures.figure3_cells,
    "figure4": figures.figure4_cells,
    "figure5": figures.figure5_cells,
    "figure6": figures.figure6_cells,
    "figure7": figures.figure7_cells,
    "figure7-sweep": figures.figure7_sweep_cells,
    "summary": figures.summary_findings_cells,
    "ablation-recovery": ablations.ablation_recovery_cells,
    "ablation-predictors": ablations.ablation_predictors_cells,
    "ablation-window": ablations.ablation_window_cells,
    "ablation-squash": ablations.ablation_squash_penalty_cells,
    "ablation-split": ablations.ablation_split_geometry_cells,
}


def _backend_choices():
    from repro.core.backend import available_backends

    return available_backends()


def _apply_backend(name) -> None:
    """Make *name* the process-wide default simulator backend.

    Exported through ``$REPRO_BACKEND`` rather than threaded through
    every artifact driver: the figure/table code calls
    ``run_benchmark`` without a backend argument, and pool workers
    inherit the environment across ``fork``.
    """
    if name:
        from repro.core.backend import BACKEND_ENV, resolve_backend

        resolve_backend(name)  # fail fast on typos
        os.environ[BACKEND_ENV] = name


_ORDER = (
    "table1", "figure1", "table3", "figure2", "table4", "figure3",
    "figure4", "figure5", "figure6", "figure7", "figure7-sweep",
    "summary", "stalls",
    "ablation-recovery", "ablation-predictors", "ablation-window",
    "ablation-squash", "ablation-split",
)


def main(argv=None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Reports are routinely piped to ``head``; a closed pipe is
        # not an error worth a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Maintenance subcommands ride in front of the artifact grammar so
    # ``repro-experiments table3 figure1`` keeps working unchanged.
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "status":
        return _status_main(argv[1:])
    if argv and argv[0] == "observe":
        return _observe_main(argv[1:])
    if argv and argv[0] == "check":
        return _check_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Memory Dependence "
            "Speculation Tradeoffs in Centralized, Continuous-Window "
            "Superscalar Processors' (HPCA 2000)."
        ),
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=sorted(ARTIFACTS) + ["all"],
        help="which artifacts to regenerate ('all' runs everything)",
    )
    parser.add_argument(
        "--timing", type=int, default=16_000,
        help="timed instructions per run (default 16000)",
    )
    parser.add_argument(
        "--warmup", type=int, default=10_000,
        help="functional warm-up instructions per run (default 10000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="short runs (6000 timed / 4000 warm-up)",
    )
    parser.add_argument(
        "--json", metavar="DIR",
        help="also write each artifact as JSON into DIR",
    )
    parser.add_argument(
        "--csv", metavar="DIR",
        help="also write each artifact's rows as CSV into DIR",
    )
    parser.add_argument(
        "--parallel", type=int, metavar="N", default=0,
        help="with N >= 2, simulate the cells of the requested "
             "artifacts with N worker processes before rendering "
             "them; 0 and 1 simulate each cell in this process at "
             "its first request",
    )
    parser.add_argument(
        "--store", metavar="DIR",
        help="persist simulation results in DIR (also honoured via "
             "the REPRO_RESULT_STORE environment variable)",
    )
    parser.add_argument(
        "--trace-store", metavar="DIR",
        help="persist compiled traces in DIR so later runs load them "
             "instead of regenerating (also honoured via the "
             "REPRO_TRACE_STORE environment variable)",
    )
    parser.add_argument(
        "--telemetry", metavar="FILE",
        help="append structured JSONL run telemetry to FILE "
             "(readable with 'repro-experiments status FILE')",
    )
    parser.add_argument(
        "--backend", choices=_backend_choices(), default=None,
        help="simulator backend for every run (default: "
             "$REPRO_BACKEND or 'reference'; backends are "
             "bit-identical — 'vector' is just faster)",
    )
    parser.add_argument(
        "--observe", metavar="DIR", nargs="?", const="observe",
        default=None,
        help="after the artifacts, write an observability bundle "
             "(Chrome trace, Kanata log, stall summary) for the "
             "flagship 128-entry NAS/NAV cell into DIR (default "
             "'observe'); use the 'observe' subcommand for full "
             "control",
    )
    args = parser.parse_args(argv)
    _require_at_least(parser, (("--timing", args.timing, 1),
                               ("--warmup", args.warmup, 0),
                               ("--parallel", args.parallel, 0)))

    if args.quick:
        settings = ExperimentSettings(6_000, 4_000, args.seed)
    else:
        settings = ExperimentSettings(args.timing, args.warmup, args.seed)
    _apply_backend(args.backend)

    names = list(args.artifacts)
    if "all" in names:
        names = list(_ORDER)

    if args.store:
        from repro.experiments.store import set_store

        set_store(args.store)
    if args.trace_store:
        from repro.trace.tracestore import set_trace_store

        set_trace_store(args.trace_store)

    from repro.experiments.runner import (
        cache_stats, observe_planned, plan_cells, pop_cell_note,
    )
    from repro.experiments.telemetry import TelemetryWriter

    # A serial run stays lazy: planning simulates nothing. It marks the
    # cells some artifact observes, so each is simulated once, observed,
    # at its first request. --parallel N >= 2 simulates the whole plan
    # first.
    cells = plan_cells(
        (CELLS[name]() for name in names if name in CELLS), settings
    )
    with TelemetryWriter(args.telemetry) as writer, observe_planned(cells):
        if args.parallel >= 2:
            _simulate(cells, settings, args.parallel, writer)

        for name in names:
            started = time.time()
            before = cache_stats()
            writer.emit("artifact_start", artifact=name)
            try:
                report = ARTIFACTS[name](settings)
                elapsed = time.time() - started
                spent = cache_stats().delta(before)
                writer.emit(
                    "artifact_finish",
                    artifact=name,
                    wall=elapsed,
                    memory_hits=spent.memory_hits,
                    store_hits=spent.store_hits,
                    simulations=spent.simulations,
                )
                print(report.render())
                print(f"\n  [{name} regenerated in {elapsed:.1f}s]\n")
                _export(report, name, args.json, args.csv)
            except BaseException as exc:
                # Record why the stream stops, then re-raise unchanged:
                # the failing cell's note goes to the record and to
                # stderr, not out with the exception.
                cell = pop_cell_note(exc)
                writer.emit(
                    "artifact_abort", artifact=name,
                    reason=type(exc).__name__, error=str(exc), cell=cell,
                )
                if cell is not None:
                    print(
                        f"{name}: cell {cell} raised "
                        f"{type(exc).__name__}",
                        file=sys.stderr,
                    )
                raise

    if args.observe:
        from repro.config import SchedulingModel, SpeculationPolicy
        from repro.config.presets import continuous_window_128
        from repro.workloads.spec95 import ALL_BENCHMARKS

        _observe_bundle(
            ALL_BENCHMARKS[0],
            continuous_window_128(
                SchedulingModel.NAS, SpeculationPolicy.NAIVE
            ),
            settings, args.observe, limit=20_000,
        )
    return 0


def _require_at_least(parser, bounds) -> None:
    """Exit with a usage error (status 2) on the first
    ``(flag, value, least)`` of *bounds* whose value is below *least*."""
    for flag, value, least in bounds:
        if value < least:
            parser.error(f"{flag} must be >= {least} (got {value})")


def _add_cell_arguments(
    parser: argparse.ArgumentParser, timing: int, warmup: int
) -> None:
    """The arguments that name one cell: its machine (read by
    :func:`_cell_config`), its run length, with this command's
    *timing* and *warmup* defaults, and its workload seed."""
    parser.add_argument(
        "--scheduling", choices=("NAS", "AS"), default="NAS",
        help="address-based scheduler present (AS) or not (default NAS)",
    )
    parser.add_argument(
        "--policy", default="NAV",
        choices=("NO", "NAV", "SEL", "STORE", "SYNC", "ORACLE", "SSET"),
        help="memory dependence speculation policy (default NAV)",
    )
    parser.add_argument(
        "--window", type=int, choices=(64, 128), default=128,
        help="window size preset (default 128)",
    )
    parser.add_argument(
        "--latency", type=int, default=0,
        help="AS address-scheduler latency in cycles (default 0)",
    )
    parser.add_argument(
        "--timing", type=int, default=timing,
        help=f"timed instructions (default {timing})",
    )
    parser.add_argument(
        "--warmup", type=int, default=warmup,
        help=f"functional warm-up instructions (default {warmup})",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )


def _cell_config(args):
    """The preset machine :func:`_add_cell_arguments`' arguments name."""
    from repro.config import SchedulingModel, SpeculationPolicy
    from repro.config.presets import (
        continuous_window_64, continuous_window_128,
    )

    preset = {64: continuous_window_64, 128: continuous_window_128}
    return preset[args.window](
        SchedulingModel(args.scheduling),
        SpeculationPolicy(args.policy),
        addr_scheduler_latency=args.latency,
    )


def _observe_bundle(
    benchmark: str,
    config,
    settings: ExperimentSettings,
    out_dir: str,
    limit: int = 20_000,
) -> dict:
    """Run one cell on *config*, observed, and write its observability
    bundle.

    Writes ``trace.json`` (Chrome ``trace_event``), ``pipeline.kanata``
    (Konata pipeline view) and ``summary.json`` (stall/metrics summary,
    schema ``schemas/observe_summary.schema.json``) into *out_dir*;
    returns the summary document.
    """
    import dataclasses
    import json as jsonlib

    from repro.core.processor import Processor
    from repro.experiments.runner import (
        _dependences_for_length, _plan_for,
    )
    from repro.observe import (
        ObserverBus, PipelineRecorder, StallAccountant,
        chrome_trace, konata_log, write_summary,
    )
    from repro.workloads.catalog import get_trace

    config = dataclasses.replace(config, observe=True)
    plan = _plan_for(benchmark, settings)
    trace = get_trace(benchmark, plan.length, settings.seed)
    info = _dependences_for_length(benchmark, plan.length, settings.seed)
    recorder = PipelineRecorder(limit=limit)
    observer = ObserverBus([StallAccountant(config), recorder])
    result = Processor(config, trace, info, observer=observer).run(plan)

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        jsonlib.dump(chrome_trace(recorder), handle)
        handle.write("\n")
    konata_path = os.path.join(out_dir, "pipeline.kanata")
    with open(konata_path, "w", encoding="utf-8") as handle:
        handle.write(konata_log(recorder))
    summary_path = os.path.join(out_dir, "summary.json")
    doc = write_summary(summary_path, result, settings={
        "benchmark": benchmark,
        "timing": settings.timing_instructions,
        "warmup": settings.warmup_instructions,
        "seed": settings.seed,
    })
    stalls = result.extra["observe"]["stalls"]
    slots = stalls["slots"]
    print(f"observed {benchmark} on {config.label}@{config.window.size}: "
          f"{result.cycles:,} cycles, IPC {result.ipc:.3f}")
    for cause, count in sorted(
        stalls["causes"].items(), key=lambda kv: -kv[1]
    ):
        if count:
            print(f"  {cause:16s} {100.0 * count / slots:5.1f}%")
    print(f"  {'commit':16s} {100.0 * stalls['commit_slots'] / slots:5.1f}%")
    print(f"wrote {trace_path}, {konata_path}, {summary_path}")
    return doc


def _observe_main(argv) -> int:
    """``repro-experiments observe BENCHMARK [--policy NAV] ...``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments observe",
        description=(
            "Run one benchmark with the observability bus attached and "
            "export a Chrome trace, a Konata pipeline log and a stall "
            "summary (see docs/OBSERVABILITY.md)."
        ),
    )
    parser.add_argument("benchmark", help="benchmark name (e.g. 126.gcc)")
    _add_cell_arguments(parser, timing=16_000, warmup=10_000)
    parser.add_argument(
        "--quick", action="store_true",
        help="short run (6000 timed / 4000 warm-up)",
    )
    parser.add_argument(
        "--limit", type=int, default=20_000,
        help="max retained pipeline records (default 20000)",
    )
    parser.add_argument(
        "--out", metavar="DIR", default="observe",
        help="output directory (default 'observe')",
    )
    args = parser.parse_args(argv)
    _require_at_least(parser, (("--timing", args.timing, 1),
                               ("--warmup", args.warmup, 0),
                               ("--latency", args.latency, 0),
                               ("--limit", args.limit, 1)))

    if args.quick:
        settings = ExperimentSettings(6_000, 4_000, args.seed)
    else:
        settings = ExperimentSettings(args.timing, args.warmup, args.seed)
    _observe_bundle(
        args.benchmark, _cell_config(args), settings, args.out,
        limit=args.limit,
    )
    return 0


def _check_main(argv) -> int:
    """``repro-experiments check {run,selftest,fuzz,findings} ...``.

    Exit codes: 0 clean, 1 violations/failures detected, 2 usage (or,
    for ``findings``, an artifact file missing or unreadable).
    """
    import json as jsonlib

    parser = argparse.ArgumentParser(
        prog="repro-experiments check",
        description=(
            "Differential and metamorphic verification of the "
            "simulator (see docs/TESTING.md)."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    run_p = sub.add_parser(
        "run",
        help="simulate one benchmark with every checker attached",
    )
    run_p.add_argument("benchmark", help="benchmark name (e.g. 126.gcc)")
    _add_cell_arguments(run_p, timing=4_000, warmup=2_000)
    run_p.add_argument(
        "--stride", type=int, default=1,
        help="run the per-cycle structure scans every N cycles "
             "(default 1 = every cycle)",
    )
    run_p.add_argument(
        "--inject", metavar="FAULT", default=None,
        help="seed a registered fault before checking (see "
             "'check selftest' for the registry); the run must then "
             "FAIL, proving the checkers see it",
    )
    run_p.add_argument(
        "--no-reference", action="store_true",
        help="skip regenerating the independent functional reference "
             "trace (faster; disables reference-divergence checks)",
    )
    run_p.add_argument(
        "--stalls", action="store_true",
        help="also attach the stall accountant and assert its "
             "conservation law",
    )
    run_p.add_argument(
        "--json-out", metavar="FILE",
        help="write the violation report as JSON to FILE",
    )

    self_p = sub.add_parser(
        "selftest",
        help="seed every registered fault; assert each is caught",
    )
    self_p.add_argument(
        "--json-out", metavar="FILE",
        help="write the per-fault record as JSON to FILE",
    )

    fuzz_p = sub.add_parser(
        "fuzz",
        help="metamorphic design-space fuzzing (paper relations)",
    )
    fuzz_p.add_argument(
        "--budget", type=int, default=5,
        help="number of random design-space cells (default 5)",
    )
    fuzz_p.add_argument(
        "--seed", type=int, default=0,
        help="fuzzer RNG seed (default 0)",
    )
    fuzz_p.add_argument(
        "--tolerance", type=float, default=0.02,
        help="oracle-dominance IPC tolerance (default 0.02)",
    )
    fuzz_p.add_argument(
        "--corpus", metavar="FILE", default=None,
        help="replay this JSON corpus before the random cells",
    )
    fuzz_p.add_argument(
        "--no-minimize", action="store_true",
        help="skip shrinking failing cells",
    )
    fuzz_p.add_argument(
        "--save-failing", metavar="FILE", default=None,
        help="write minimised failing cells as a corpus to FILE",
    )
    fuzz_p.add_argument(
        "--json-out", metavar="FILE",
        help="write the fuzzing outcome as JSON to FILE",
    )
    fuzz_p.add_argument(
        "--backend", choices=_backend_choices(), default=None,
        help="simulator backend for every fuzzed cell (default: "
             "$REPRO_BACKEND or 'reference')",
    )

    findings_p = sub.add_parser(
        "findings",
        help="check the paper's findings on the artifacts "
             "'all --json DIR' wrote",
    )
    findings_p.add_argument(
        "directory", metavar="DIR",
        help="directory holding the artifacts' JSON files",
    )

    args = parser.parse_args(argv)

    def dump(payload, path):
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                jsonlib.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {path}")

    if args.mode == "run":
        _require_at_least(run_p, (("--timing", args.timing, 1),
                                  ("--warmup", args.warmup, 0),
                                  ("--latency", args.latency, 0),
                                  ("--stride", args.stride, 1)))
        from repro.check import check_benchmark, fault_names

        if args.inject is not None and args.inject not in fault_names():
            print(
                f"unknown fault {args.inject!r}; registered faults: "
                f"{', '.join(fault_names())}",
                file=sys.stderr,
            )
            return 2
        settings = ExperimentSettings(args.timing, args.warmup, args.seed)
        outcome = check_benchmark(
            args.benchmark, _cell_config(args), settings,
            reference=not args.no_reference,
            stride=args.stride,
            fault=args.inject,
            stalls=args.stalls,
        )
        report = outcome.report
        label = (
            f"{args.benchmark} {args.scheduling}/{args.policy}"
            f"@w{args.window}"
        )
        if outcome.result is not None:
            print(
                f"checked {label}: {outcome.result.committed:,} commits, "
                f"{outcome.result.cycles:,} cycles, "
                f"IPC {outcome.result.ipc:.3f}"
            )
        if args.inject:
            print(f"injected fault: {args.inject}")
        print(report.render())
        dump(report.to_dict(), args.json_out)
        return 0 if outcome.ok else 1

    if args.mode == "findings":
        from repro.experiments import findings

        try:
            outcomes = findings.evaluate(
                findings.read_artifacts(args.directory)
            )
        except findings.ArtifactError as exc:
            path = os.path.join(args.directory, f"{exc.artifact}.json")
            print(f"cannot check findings: {path}: {exc.reason}",
                  file=sys.stderr)
            return 2
        print(findings.render(outcomes))
        return 0 if all(outcome.holds for outcome in outcomes) else 1

    if args.mode == "selftest":
        from repro.check import fault_names, selftest

        record = selftest()
        for name in fault_names():
            entry = record["faults"][name]
            status = "caught" if entry["caught"] else "MISSED"
            clean = "clean" if entry["clean_ok"] else "DIRTY-CLEAN-RUN"
            caught_by = ", ".join(entry["caught_by"]) or "-"
            print(f"{name:16s} {status:7s} by {caught_by:24s} [{clean}]")
        print(f"selftest: {'OK' if record['ok'] else 'FAILED'} "
              f"({len(record['faults'])} faults)")
        dump(record, args.json_out)
        return 0 if record["ok"] else 1

    # args.mode == "fuzz"
    _require_at_least(fuzz_p, (("--budget", args.budget, 0),))
    from repro.check.fuzz import (
        FuzzCell, fuzz as run_fuzz, load_corpus, save_corpus,
    )

    _apply_backend(args.backend)
    corpus = []
    if args.corpus:
        try:
            corpus = load_corpus(args.corpus)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load corpus {args.corpus}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"replaying {len(corpus)} corpus cells from {args.corpus}")
    outcome = run_fuzz(
        budget=args.budget,
        rng_seed=args.seed,
        tolerance=args.tolerance,
        corpus=corpus,
        minimize=not args.no_minimize,
        log=print,
    )
    print(
        f"fuzz: {outcome.cells_run} cells, "
        f"{len(outcome.failures)} relation failures"
    )
    for failure in outcome.failures:
        print(f"  FAIL {failure['relation']}: {failure['detail']}")
        print(f"       cell: {failure['cell']}")
    if outcome.minimized:
        print("minimised reproducers (rerun with "
              "'check fuzz --corpus FILE' after saving):")
        for cell in outcome.minimized:
            print(f"  {cell}")
    if args.save_failing and outcome.minimized:
        save_corpus(
            args.save_failing,
            [FuzzCell.from_dict(c) for c in outcome.minimized],
        )
        print(f"wrote failing corpus to {args.save_failing}")
    dump(outcome.to_dict(), args.json_out)
    return 0 if outcome.ok else 1


def _add_store_paths(parser: argparse.ArgumentParser) -> None:
    """``--path`` and ``--trace-path``, the stores ``cache`` works on."""
    parser.add_argument(
        "--path", metavar="DIR", default=None,
        help="result-store directory (default: $REPRO_RESULT_STORE or "
             "~/.cache/repro-results)",
    )
    parser.add_argument(
        "--trace-path", metavar="DIR", default=None,
        help="trace-store directory (default: $REPRO_TRACE_STORE or "
             "~/.cache/repro-traces)",
    )


def _stores(args):
    """The result and trace stores that :func:`_add_store_paths`'
    arguments name."""
    from repro.experiments.store import ResultStore, default_store_path
    from repro.trace.tracestore import TraceStore, default_trace_store_path

    return (
        ResultStore(args.path or default_store_path()),
        TraceStore(args.trace_path or default_trace_store_path()),
    )


def _cache_main(argv) -> int:
    """``repro-experiments cache [prune] [--path DIR] [--clear] ...``."""
    if argv and argv[0] == "prune":
        return _cache_prune_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments cache",
        description=(
            "Inspect or clear the persistent result and trace stores."
        ),
    )
    _add_store_paths(parser)
    parser.add_argument(
        "--clear", action="store_true",
        help="delete every cached result record",
    )
    parser.add_argument(
        "--clear-traces", action="store_true",
        help="delete every cached compiled trace",
    )
    args = parser.parse_args(argv)

    store, traces = _stores(args)
    if args.clear or args.clear_traces:
        if args.clear:
            removed = store.clear()
            print(f"cleared {removed} cached results from {store.root}")
        if args.clear_traces:
            removed = traces.clear()
            print(f"cleared {removed} compiled traces from {traces.root}")
        return 0
    stats = store.stats()
    print(f"store path      {stats['path']}")
    print(f"schema version  {stats['schema']}")
    print(f"entries         {stats['entries']}")
    print(f"older schemas   {stats['stale_entries']} (never served)")
    print(f"size            {stats['size_bytes'] / 1024:.1f} KiB")
    if not os.path.isdir(store.root):
        print("(store directory does not exist yet — it is created "
              "on the first cached simulation)")
    tstats = traces.stats()
    print(f"trace store     {tstats['path']}")
    print(f"trace format    {tstats['format']}")
    print(f"trace entries   {tstats['entries']}")
    print(f"older formats   {tstats['stale_entries']} (never served)")
    print(f"trace size      {tstats['size_bytes'] / 1024:.1f} KiB")
    if not os.path.isdir(traces.root):
        print("(trace-store directory does not exist yet — it is "
              "created on the first generated trace)")
    return 0


def _cache_prune_main(argv) -> int:
    """``repro-experiments cache prune [--max-age D] [--apply] ...``."""
    from repro.experiments.prune import prune_paths

    parser = argparse.ArgumentParser(
        prog="repro-experiments cache prune",
        description=(
            "Evict old or excess entries from the persistent result "
            "and trace stores. Dry-run by default: prints the plan; "
            "--apply executes it."
        ),
    )
    _add_store_paths(parser)
    parser.add_argument(
        "--max-age", type=float, metavar="DAYS", default=None,
        help="evict entries older than DAYS days",
    )
    parser.add_argument(
        "--max-size", type=float, metavar="MIB", default=None,
        help="evict oldest entries until each store fits in MIB MiB",
    )
    parser.add_argument(
        "--results-only", action="store_true",
        help="prune only the result store",
    )
    parser.add_argument(
        "--traces-only", action="store_true",
        help="prune only the trace store",
    )
    parser.add_argument(
        "--apply", action="store_true",
        help="actually delete (default is a dry run)",
    )
    args = parser.parse_args(argv)
    if args.max_age is None and args.max_size is None:
        parser.error("nothing to do: pass --max-age and/or --max-size")
    for flag, value in (("--max-age", args.max_age),
                        ("--max-size", args.max_size)):
        if value is not None and not 0 <= value < float("inf"):
            parser.error(
                f"{flag} must be a finite number >= 0 (got {value:g})"
            )
    if args.results_only and args.traces_only:
        parser.error("--results-only and --traces-only are exclusive")

    max_age = (
        args.max_age * 86_400.0 if args.max_age is not None else None
    )
    max_size = (
        int(args.max_size * 1024 * 1024)
        if args.max_size is not None else None
    )
    store, traces = _stores(args)
    targets = []
    if not args.traces_only:
        targets.append(("results", store))
    if not args.results_only:
        targets.append(("traces", traces))

    for label, target in targets:
        # Entries of another schema or format version can never be
        # served, so the plan covers them too.
        report = prune_paths(
            [*target.entries(), *target.stale_entries()],
            max_age_seconds=max_age, max_size_bytes=max_size,
            apply=args.apply,
        )
        verb = "pruned" if args.apply else "would prune"
        print(
            f"{label:8s} {target.root}: {verb} "
            f"{len(report['selected'])}/{report['examined']} entries "
            f"({report['selected_bytes'] / 1024:.1f} KiB), keeping "
            f"{report['kept']} ({report['kept_bytes'] / 1024:.1f} KiB)"
        )
        if report["errors"]:
            print(f"  {report['errors']} entries could not be removed",
                  file=sys.stderr)
    if not args.apply:
        print("(dry run — re-run with --apply to delete)")
    return 0


def _status_main(argv) -> int:
    """``repro-experiments status TELEMETRY.jsonl``."""
    import json as jsonlib

    from repro.experiments.telemetry import (
        read_telemetry, render_summary, summarize_telemetry,
    )

    parser = argparse.ArgumentParser(
        prog="repro-experiments status",
        description="Summarize a JSONL experiment telemetry stream.",
    )
    parser.add_argument("telemetry", help="path to the JSONL file")
    parser.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON instead of text",
    )
    args = parser.parse_args(argv)

    try:
        events = read_telemetry(args.telemetry)
    except OSError as exc:
        print(f"cannot read {args.telemetry}: {exc}", file=sys.stderr)
        return 1
    summary = summarize_telemetry(events)
    if args.json:
        print(jsonlib.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _simulate(
    cells: dict,
    settings: ExperimentSettings,
    workers: int,
    telemetry=None,
) -> None:
    """Simulate the planned *cells* (from
    :func:`~repro.experiments.runner.plan_cells`) over *workers*
    processes, so rendering the artifacts afterwards simulates
    nothing."""
    from repro.config.presets import config_name
    from repro.experiments.parallel import run_cells_parallel

    labels: Dict[tuple, str] = {}
    shards: Dict[str, list] = {}
    for (name, _, config_key), config in cells.items():
        label = labels.setdefault(
            config_key, f"{config_name(config)} #{len(labels)}"
        )
        shards.setdefault(name, []).append((label, config))
    started = time.time()
    _, totals = run_cells_parallel(
        shards, settings, workers=workers, telemetry=telemetry
    )
    print(
        f"  [{len(cells)} cells of the requested artifacts with {workers} "
        f"workers in {time.time() - started:.1f}s: "
        f"{totals['simulations']} simulated, "
        f"{totals['store_hits']} from the result store]\n"
    )


def _export(report, name: str, json_dir, csv_dir) -> None:
    from repro.experiments.export import report_to_csv, report_to_json

    if json_dir:
        os.makedirs(json_dir, exist_ok=True)
        path = os.path.join(json_dir, f"{name}.json")
        with open(path, "w") as handle:
            handle.write(report_to_json(report))
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        path = os.path.join(csv_dir, f"{name}.csv")
        with open(path, "w") as handle:
            handle.write(report_to_csv(report))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
