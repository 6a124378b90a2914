"""Regenerates the paper's tables (1, 3 and 4) and the stall table.

Each simulating driver's ``<driver>_cells`` function declares the cells
it requests (:class:`~repro.experiments.runner.Cells`).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.config.presets import continuous_window_64, continuous_window_128
from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.experiments.paper_data import (
    PAPER_TABLE3_FD,
    PAPER_TABLE3_RL,
    PAPER_TABLE4_NAV,
    PAPER_TABLE4_SYNC,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import (
    DEFAULT_SETTINGS,
    Cells,
    ExperimentSettings,
    run_benchmark,
)
from repro.workloads.catalog import get_trace
from repro.workloads.spec95 import ALL_BENCHMARKS, profile_for


def table1(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Table 1: benchmark composition (checked against the calibration).

    The paper's table reports the original programs' dynamic instruction
    counts and load/store fractions; we report the measured composition
    of each stand-in trace next to its calibration target.
    """
    rows = []
    data = {}
    for name in benchmarks:
        profile = profile_for(name)
        trace = get_trace(name, settings.trace_length, settings.seed)
        summary = trace.summary()
        rows.append((
            name,
            f"{profile.instruction_count_millions:,.1f}M",
            f"{summary.load_fraction * 100:.1f}%",
            f"{profile.load_fraction * 100:.1f}%",
            f"{summary.store_fraction * 100:.1f}%",
            f"{profile.store_fraction * 100:.1f}%",
            profile.sampling_ratio or "N/A",
        ))
        data[name] = {
            "loads": summary.load_fraction,
            "loads_paper": profile.load_fraction,
            "stores": summary.store_fraction,
            "stores_paper": profile.store_fraction,
        }
    return ExperimentReport(
        experiment="Table 1",
        title="Benchmark execution characteristics (measured vs paper)",
        headers=("program", "paper IC", "loads", "(paper)",
                 "stores", "(paper)", "SR"),
        rows=rows,
        notes=[
            "IC column reports the paper's original dynamic instruction "
            "count; our stand-in traces are "
            f"{settings.trace_length:,} instructions "
            f"({settings.warmup_instructions:,} warm-up + "
            f"{settings.timing_instructions:,} timed).",
        ],
        data=data,
    )


def table3_cells(benchmarks: Sequence[str] = ALL_BENCHMARKS) -> Cells:
    return Cells({
        "NAS/NO": continuous_window_128(
            SchedulingModel.NAS, SpeculationPolicy.NO
        ),
    }, benchmarks)


def table3(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Table 3: false-dependence fraction and resolution latency.

    Measured on the 128-entry NAS/NO machine, exactly as the paper
    defines: a committed load counts as false-dependence-delayed if, at
    the moment its address was ready but older un-issued stores blocked
    it, no older un-issued store truly conflicted.
    """
    cells = table3_cells(benchmarks)
    config = cells.configs["NAS/NO"]
    rows = []
    data = {}
    for name in cells.benchmarks:
        result = run_benchmark(name, config, settings)
        short = name.split(".")[0]
        fd = result.false_dependence_fraction * 100
        rl = result.mean_resolution_latency
        rows.append((
            name,
            f"{fd:.1f}%", f"{PAPER_TABLE3_FD[short]:.1f}%",
            f"{rl:.1f}", f"{PAPER_TABLE3_RL[short]:.1f}",
        ))
        data[name] = {
            "fd": fd, "fd_paper": PAPER_TABLE3_FD[short],
            "rl": rl, "rl_paper": PAPER_TABLE3_RL[short],
        }
    return ExperimentReport(
        experiment="Table 3",
        title=("False-dependence fraction (FD) and resolution latency "
               "(RL), 128-entry NAS/NO"),
        headers=("program", "FD", "FD paper", "RL", "RL paper"),
        rows=rows,
        data=data,
    )


#: Policies of the stall-breakdown table, in the NO -> NAV -> ORACLE
#: order of the paper's F1/F2 argument.
_STALL_POLICIES = (
    SpeculationPolicy.NO,
    SpeculationPolicy.NAIVE,
    SpeculationPolicy.ORACLE,
)


def table_stalls_cells(benchmarks: Sequence[str] = ALL_BENCHMARKS) -> Cells:
    """Observed NAS machines keyed by (window label, policy)."""
    return Cells({
        (window_label, policy): dataclasses.replace(
            factory(SchedulingModel.NAS, policy), observe=True
        )
        for window_label, factory in (
            ("w64", continuous_window_64), ("w128", continuous_window_128)
        )
        for policy in _STALL_POLICIES
    }, benchmarks)


def table_stalls(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Where the cycles go: commit-slot attribution per policy.

    Runs the NAS machine at 64- and 128-entry windows under NO, NAV and
    ORACLE with the observability bus attached
    (:mod:`repro.observe`), and aggregates every commit slot across the
    benchmarks into one cause breakdown per configuration. The
    ``sum(causes) + commit == width x cycles`` identity holds per cell
    by construction.
    """
    cells = table_stalls_cells(benchmarks)
    rows = []
    data = {}
    keys = (
        "commit", "memdep-wait", "store-barrier", "sync-wait",
        "squash-recovery", "cache-miss", "reg-dep", "exec",
        "window-full", "fetch",
    )
    for (window_label, _), config in cells.configs.items():
        slots = 0
        totals = {key: 0 for key in keys}
        for name in cells.benchmarks:
            result = run_benchmark(name, config, settings)
            stalls = result.extra["observe"]["stalls"]
            slots += stalls["slots"]
            totals["commit"] += stalls["commit_slots"]
            for cause, count in stalls["causes"].items():
                totals[cause] += count
        label = f"{window_label} {config.label}"
        pct = {key: 100.0 * totals[key] / slots for key in keys}
        rows.append(
            (label,) + tuple(f"{pct[key]:.1f}%" for key in keys)
        )
        data[label] = {"slots": slots, **{k: totals[k] for k in keys}}
    return ExperimentReport(
        experiment="Stalls",
        title=("Commit-slot attribution (% of width x cycles), NAS "
               "machine, all benchmarks"),
        headers=("config",) + keys,
        rows=rows,
        notes=[
            "Every commit slot is charged to exactly one cause by the "
            "repro.observe stall accountant; rows sum to 100%.",
            "memdep-wait (loads held behind older stores not known to "
            "conflict) must shrink monotonically NO -> NAV -> ORACLE: "
            "NAV and ORACLE never hold a load on an unknown "
            "dependence, so their memdep-wait is zero and the cost "
            "moves to squash-recovery (NAV) or disappears (ORACLE) — "
            "the paper's F1/F2.",
        ],
        data=data,
    )


def table4_cells(benchmarks: Sequence[str] = ALL_BENCHMARKS) -> Cells:
    return Cells({
        "NAV": continuous_window_128(
            SchedulingModel.NAS, SpeculationPolicy.NAIVE
        ),
        "SYNC": continuous_window_128(
            SchedulingModel.NAS, SpeculationPolicy.SYNC
        ),
    }, benchmarks)


def table4(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Table 4: miss-speculation rate under NAS/NAV and NAS/SYNC."""
    cells = table4_cells(benchmarks)
    rows = []
    data = {}
    for name in cells.benchmarks:
        r_nav = run_benchmark(name, cells.configs["NAV"], settings)
        r_sync = run_benchmark(name, cells.configs["SYNC"], settings)
        short = name.split(".")[0]
        nav_pct = r_nav.misspeculation_rate * 100
        sync_pct = r_sync.misspeculation_rate * 100
        rows.append((
            name,
            f"{nav_pct:.2f}%", f"{PAPER_TABLE4_NAV[short]:.1f}%",
            f"{sync_pct:.4f}%", f"{PAPER_TABLE4_SYNC[short]:.4f}%",
        ))
        data[name] = {
            "nav": nav_pct, "nav_paper": PAPER_TABLE4_NAV[short],
            "sync": sync_pct, "sync_paper": PAPER_TABLE4_SYNC[short],
        }
    return ExperimentReport(
        experiment="Table 4",
        title=("Memory dependence miss-speculation rate over committed "
               "loads"),
        headers=("program", "NAV", "NAV paper", "SYNC", "SYNC paper"),
        rows=rows,
        data=data,
    )
