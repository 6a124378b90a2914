"""Regenerates the paper's figures (1 through 7) as text reports.

Each driver simulates the configurations the figure compares and prints
the same per-benchmark series the paper plots, plus the suite geometric
means quoted in the text.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config.presets import (
    continuous_window_128,
    continuous_window_64,
    split_window,
)
from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.experiments.paper_data import PAPER_SUMMARY
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    run_benchmark,
)
from repro.stats.summary import geometric_mean
from repro.workloads.spec95 import (
    ALL_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
)

_NAS = SchedulingModel.NAS
_AS = SchedulingModel.AS
_NO = SpeculationPolicy.NO
_NAV = SpeculationPolicy.NAIVE
_SEL = SpeculationPolicy.SELECTIVE
_STORE = SpeculationPolicy.STORE_BARRIER
_SYNC = SpeculationPolicy.SYNC
_ORACLE = SpeculationPolicy.ORACLE


def _suite_means(values: Dict[str, float], benchmarks) -> Dict[str, float]:
    ints = [values[b] for b in benchmarks if b in INT_BENCHMARKS]
    fps = [values[b] for b in benchmarks if b in FP_BENCHMARKS]
    means = {}
    if ints:
        means["int"] = geometric_mean(ints)
    if fps:
        means["fp"] = geometric_mean(fps)
    return means


def figure1(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Figure 1: load/store parallelism potential (NAS/NO vs NAS/ORACLE).

    Reports IPC at 64- and 128-entry windows and the ORACLE-over-NO
    speedup per benchmark — the paper's headline result that the payoff
    of exploiting load/store parallelism grows with window size.
    """
    cfg = {
        "w64 NO": continuous_window_64(_NAS, _NO),
        "w64 ORACLE": continuous_window_64(_NAS, _ORACLE),
        "w128 NO": continuous_window_128(_NAS, _NO),
        "w128 ORACLE": continuous_window_128(_NAS, _ORACLE),
    }
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    speedups64: Dict[str, float] = {}
    speedups128: Dict[str, float] = {}
    for name in benchmarks:
        ipc = {
            label: run_benchmark(name, config, settings).ipc
            for label, config in cfg.items()
        }
        speedups64[name] = ipc["w64 ORACLE"] / ipc["w64 NO"]
        speedups128[name] = ipc["w128 ORACLE"] / ipc["w128 NO"]
        rows.append((
            name,
            f"{ipc['w64 NO']:.2f}", f"{ipc['w64 ORACLE']:.2f}",
            f"{(speedups64[name] - 1) * 100:+.0f}%",
            f"{ipc['w128 NO']:.2f}", f"{ipc['w128 ORACLE']:.2f}",
            f"{(speedups128[name] - 1) * 100:+.0f}%",
        ))
        data[name] = dict(ipc)
    means = _suite_means(speedups128, benchmarks)
    notes = [
        f"128-entry speedup (geo-mean): "
        + ", ".join(
            f"{suite} {(v - 1) * 100:+.1f}% "
            f"(paper {PAPER_SUMMARY[f'oracle_over_no_{suite}']:+.1f}%)"
            for suite, v in means.items()
        ),
    ]
    return ExperimentReport(
        experiment="Figure 1",
        title=("IPC with and without exploiting load/store parallelism "
               "(NAS/NO vs NAS/ORACLE)"),
        headers=("program", "64 NO", "64 ORA", "spd64",
                 "128 NO", "128 ORA", "spd128"),
        rows=rows,
        notes=notes,
        data={
            "ipc": data,
            "speedup64": speedups64,
            "speedup128": speedups128,
            "means128": means,
        },
    )


def figure2(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Figure 2: naive memory dependence speculation without an
    address-based scheduler (NAS/NO vs NAS/ORACLE vs NAS/NAV)."""
    cfg = {
        "NO": continuous_window_128(_NAS, _NO),
        "ORACLE": continuous_window_128(_NAS, _ORACLE),
        "NAV": continuous_window_128(_NAS, _NAV),
    }
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    nav_speedup: Dict[str, float] = {}
    for name in benchmarks:
        ipc = {
            label: run_benchmark(name, config, settings).ipc
            for label, config in cfg.items()
        }
        nav_speedup[name] = ipc["NAV"] / ipc["NO"]
        rows.append((
            name, f"{ipc['NO']:.2f}", f"{ipc['ORACLE']:.2f}",
            f"{ipc['NAV']:.2f}",
            f"{(nav_speedup[name] - 1) * 100:+.0f}%",
        ))
        data[name] = dict(ipc)
    means = _suite_means(nav_speedup, benchmarks)
    notes = [
        "NAV-over-NO speedup (geo-mean): "
        + ", ".join(
            f"{suite} {(v - 1) * 100:+.1f}% "
            f"(paper {PAPER_SUMMARY[f'nav_over_no_{suite}']:+.1f}%)"
            for suite, v in means.items()
        ),
    ]
    return ExperimentReport(
        experiment="Figure 2",
        title="Performance with naive speculation, no address scheduler",
        headers=("program", "NAS/NO", "NAS/ORACLE", "NAS/NAV", "NAV spd"),
        rows=rows,
        notes=notes,
        data={"ipc": data, "nav_speedup": nav_speedup, "means": means},
    )


def figure3(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Figure 3: AS/NAV relative to AS/NO at 0/1/2-cycle scheduler
    latency (part a), plus AS/NO base IPC (part b)."""
    latencies = (0, 1, 2)
    rows = []
    rel: Dict[int, Dict[str, float]] = {lat: {} for lat in latencies}
    base_ipc: Dict[str, float] = {}
    for name in benchmarks:
        cells: List[object] = [name]
        for lat in latencies:
            r_no = run_benchmark(
                name, continuous_window_128(_AS, _NO, lat), settings
            )
            r_nav = run_benchmark(
                name, continuous_window_128(_AS, _NAV, lat), settings
            )
            rel[lat][name] = r_nav.ipc / r_no.ipc
            cells.append(f"{(rel[lat][name] - 1) * 100:+.1f}%")
            if lat == 0:
                base_ipc[name] = r_no.ipc
        cells.append(f"{base_ipc[name]:.2f}")
        rows.append(tuple(cells))
    means0 = _suite_means(rel[0], benchmarks)
    notes = [
        "0-cycle AS/NAV-over-AS/NO (geo-mean): "
        + ", ".join(
            f"{suite} {(v - 1) * 100:+.1f}% "
            f"(paper {PAPER_SUMMARY[f'asnav_over_asno_{suite}']:+.1f}%)"
            for suite, v in means0.items()
        ),
        "Each latency column compares against AS/NO at the same latency "
        "(the paper's per-bar base).",
    ]
    return ExperimentReport(
        experiment="Figure 3",
        title=("Naive speculation with an address-based scheduler, as a "
               "function of scheduler latency"),
        headers=("program", "0cy", "1cy", "2cy", "AS/NO-0cy IPC"),
        rows=rows,
        notes=notes,
        data={"relative": rel, "base_ipc": base_ipc, "means0": means0},
    )


def figure4(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Figure 4: oracle disambiguation vs address-based scheduling.

    All bars are relative to AS/NO with a 0-cycle scheduler."""
    base_cfg = continuous_window_128(_AS, _NO, 0)
    oracle_cfg = continuous_window_128(_NAS, _ORACLE)
    rows = []
    rel: Dict[str, Dict[str, float]] = {
        "NAS/ORACLE": {}, "AS/NAV 0cy": {}, "AS/NAV 1cy": {},
        "AS/NAV 2cy": {},
    }
    for name in benchmarks:
        base = run_benchmark(name, base_cfg, settings).ipc
        rel["NAS/ORACLE"][name] = (
            run_benchmark(name, oracle_cfg, settings).ipc / base
        )
        for lat in (0, 1, 2):
            cfg = continuous_window_128(_AS, _NAV, lat)
            rel[f"AS/NAV {lat}cy"][name] = (
                run_benchmark(name, cfg, settings).ipc / base
            )
        rows.append((
            name,
            *(f"{(rel[k][name] - 1) * 100:+.1f}%" for k in rel),
        ))
    notes = [
        "Positive = faster than AS/NO with a 0-cycle scheduler. "
        "The paper's observation: 0-cycle AS/NAV tracks NAS/ORACLE; "
        "1+ cycles of scheduler latency erase the advantage.",
    ]
    return ExperimentReport(
        experiment="Figure 4",
        title=("Oracle disambiguation vs address-based scheduling "
               "(base: AS/NO 0-cycle)"),
        headers=("program", "NAS/ORACLE", "AS/NAV 0cy", "AS/NAV 1cy",
                 "AS/NAV 2cy"),
        rows=rows,
        notes=notes,
        data={"relative": rel},
    )


def _policy_vs_nav(
    policy: SpeculationPolicy,
    settings: ExperimentSettings,
    benchmarks,
) -> Dict[str, Dict[str, float]]:
    nav_cfg = continuous_window_128(_NAS, _NAV)
    pol_cfg = continuous_window_128(_NAS, policy)
    oracle_cfg = continuous_window_128(_NAS, _ORACLE)
    rel: Dict[str, float] = {}
    oracle_rel: Dict[str, float] = {}
    miss: Dict[str, float] = {}
    for name in benchmarks:
        nav_ipc = run_benchmark(name, nav_cfg, settings).ipc
        result = run_benchmark(name, pol_cfg, settings)
        rel[name] = result.ipc / nav_ipc
        miss[name] = result.misspeculation_rate * 100
        oracle_rel[name] = (
            run_benchmark(name, oracle_cfg, settings).ipc / nav_ipc
        )
    return {"relative": rel, "oracle": oracle_rel, "miss": miss}


def figure5(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Figure 5: selective and store-barrier speculation vs NAS/NAV."""
    sel = _policy_vs_nav(_SEL, settings, benchmarks)
    store = _policy_vs_nav(_STORE, settings, benchmarks)
    rows = []
    for name in benchmarks:
        rows.append((
            name,
            f"{(sel['relative'][name] - 1) * 100:+.1f}%",
            f"{(store['relative'][name] - 1) * 100:+.1f}%",
            f"{(sel['oracle'][name] - 1) * 100:+.1f}%",
        ))
    sel_means = _suite_means(sel["relative"], benchmarks)
    store_means = _suite_means(store["relative"], benchmarks)
    notes = [
        "Base is NAS/NAV; ORACLE column shows the headroom. "
        "The paper's finding: neither technique is robust — gains in "
        "some programs, losses in others, never close to oracle.",
        "Geo-means vs NAV: SEL "
        + ", ".join(f"{s} {(v-1)*100:+.1f}%" for s, v in sel_means.items())
        + "; STORE "
        + ", ".join(
            f"{s} {(v-1)*100:+.1f}%" for s, v in store_means.items()
        ),
    ]
    return ExperimentReport(
        experiment="Figure 5",
        title=("Selective (NAS/SEL) and store-barrier (NAS/STORE) "
               "speculation, relative to NAS/NAV"),
        headers=("program", "SEL", "STORE", "ORACLE headroom"),
        rows=rows,
        notes=notes,
        data={"sel": sel, "store": store},
    )


def figure6(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Figure 6: speculation/synchronization (NAS/SYNC) vs NAS/NAV."""
    sync = _policy_vs_nav(_SYNC, settings, benchmarks)
    rows = []
    for name in benchmarks:
        rows.append((
            name,
            f"{(sync['relative'][name] - 1) * 100:+.1f}%",
            f"{(sync['oracle'][name] - 1) * 100:+.1f}%",
            f"{sync['miss'][name]:.4f}%",
        ))
    means = _suite_means(sync["relative"], benchmarks)
    oracle_means = _suite_means(sync["oracle"], benchmarks)
    notes = [
        "SYNC-over-NAV (geo-mean): "
        + ", ".join(
            f"{suite} {(v - 1) * 100:+.1f}% "
            f"(paper {PAPER_SUMMARY[f'sync_over_nav_{suite}']:+.1f}%)"
            for suite, v in means.items()
        ),
        "ORACLE-over-NAV (geo-mean): "
        + ", ".join(
            f"{suite} {(v - 1) * 100:+.1f}% "
            f"(paper {PAPER_SUMMARY[f'oracle_over_nav_{suite}']:+.1f}%)"
            for suite, v in oracle_means.items()
        ),
    ]
    return ExperimentReport(
        experiment="Figure 6",
        title="Speculation/synchronization (NAS/SYNC) relative to NAS/NAV",
        headers=("program", "SYNC", "ORACLE", "SYNC miss-spec"),
        rows=rows,
        notes=notes,
        data={"sync": sync, "means": means, "oracle_means": oracle_means},
    )


def figure7(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=("129.compress", "126.gcc", "104.hydro2d", "102.swim"),
) -> ExperimentReport:
    """Figure 7 / Section 3.7: split vs continuous window.

    Shows that a 0-cycle address-based scheduler removes essentially all
    miss-speculations under a continuous window but not under a split
    window, where loads can compute addresses before older (cross-unit)
    stores have fetched.
    """
    cont_cfg = continuous_window_128(_AS, _NAV, 0)
    split_cfg = split_window(_AS, _NAV, 0)
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for name in benchmarks:
        cont = run_benchmark(name, cont_cfg, settings)
        spl = run_benchmark(name, split_cfg, settings)
        rows.append((
            name,
            f"{cont.misspeculation_rate * 100:.2f}%",
            f"{spl.misspeculation_rate * 100:.2f}%",
            f"{cont.ipc:.2f}", f"{spl.ipc:.2f}",
        ))
        data[name] = {
            "cont_miss": cont.misspeculation_rate,
            "split_miss": spl.misspeculation_rate,
            "cont_ipc": cont.ipc,
            "split_ipc": spl.ipc,
        }
    notes = [
        "Both machines use a 0-cycle address-based scheduler with naive "
        "speculation (AS/NAV). The split window cannot inspect store "
        "addresses that have not been fetched yet (Figure 7's loop).",
    ]
    return ExperimentReport(
        experiment="Figure 7",
        title=("Miss-speculation under continuous vs split windows "
               "(AS/NAV, 0-cycle scheduler)"),
        headers=("program", "cont miss", "split miss",
                 "cont IPC", "split IPC"),
        rows=rows,
        notes=notes,
        data=data,
    )


def figure7_sweep(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=("129.compress", "126.gcc", "104.hydro2d", "102.swim"),
    latencies=(0, 1, 2),
    bandwidths=(0, 4, 2, 1),
) -> ExperimentReport:
    """Figure 7 extended: scheduler latency x sync-fabric bandwidth.

    The paper stops at "a split window miss-speculates even with a
    0-cycle scheduler". This sweep asks how much worse a *realistic*
    cross-window fabric makes it: every cell runs the split machine
    (AS/NAV, 4 units) at one (scheduler latency, fabric bandwidth)
    point. Bandwidth 0 means unbounded (the ideal fabric); in
    bounded-bandwidth cells a posted store address travels as a
    message through the sync fabric, and a dependent load that issues
    before the message arrives is a miss-speculation the continuous
    machine could never commit.

    Each bandwidth column's miss-speculation counts must be
    non-decreasing in scheduler latency within the fuzzer's calibrated
    R6 tolerance — ``data["monotonic"]`` records the per-column check
    that ``tests/test_figure7_sweep.py`` asserts.
    """
    from repro.check.fuzz import SPLIT_MONO_TOLERANCE

    rows = []
    cells: Dict[str, Dict] = {}
    missp_by_bw: Dict[int, List[int]] = {bw: [] for bw in bandwidths}
    for bandwidth in bandwidths:
        for latency in latencies:
            config = split_window(
                _AS, _NAV, latency, sync_bandwidth=bandwidth
            )
            ipcs: Dict[str, float] = {}
            rates: Dict[str, float] = {}
            missp = loads = cycles = 0
            for name in benchmarks:
                r = run_benchmark(name, config, settings)
                ipcs[name] = r.ipc
                rates[name] = r.misspeculation_rate
                missp += r.misspeculations
                loads += r.committed_loads
                cycles += r.cycles
            missp_by_bw[bandwidth].append(missp)
            rate = missp / loads if loads else 0.0
            bw_label = "inf" if bandwidth == 0 else str(bandwidth)
            rows.append((
                f"{latency}cy", bw_label,
                f"{rate * 100:.2f}%",
                f"{geometric_mean(list(ipcs.values())):.2f}",
                missp, cycles,
            ))
            cells[f"lat{latency}_bw{bw_label}"] = {
                "latency": latency,
                "bandwidth": bandwidth,
                "misspeculations": missp,
                "rate": rate,
                "ipc": ipcs,
                "rates": rates,
            }
    floor = 1.0 - SPLIT_MONO_TOLERANCE
    monotonic = {
        ("inf" if bw == 0 else str(bw)): all(
            series[i + 1] >= series[i] * floor
            for i in range(len(series) - 1)
        )
        for bw, series in missp_by_bw.items()
    }
    notes = [
        "Split window, 4 units, AS/NAV. Bandwidth = posted-address "
        "messages the sync fabric delivers per cycle (inf = the "
        "legacy idealization; bounded cells run on the event-driven "
        "backend).",
        "Miss-speculations per column are non-decreasing in scheduler "
        f"latency within the R6 tolerance: {monotonic}",
    ]
    return ExperimentReport(
        experiment="Figure 7 sweep",
        title=("Split-window miss-speculation vs scheduler latency "
               "and sync-fabric bandwidth (AS/NAV)"),
        headers=("sched lat", "fabric b/w", "miss rate",
                 "IPC (gmean)", "miss-specs", "cycles"),
        rows=rows,
        notes=notes,
        data={
            "latencies": list(latencies),
            "bandwidths": list(bandwidths),
            "cells": cells,
            "monotonic": monotonic,
            "tolerance": SPLIT_MONO_TOLERANCE,
        },
    )


def summary_findings(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=ALL_BENCHMARKS,
) -> ExperimentReport:
    """Section 4's quantitative findings, measured vs paper."""
    cfgs = {
        "NAS/NO": continuous_window_128(_NAS, _NO),
        "NAS/NAV": continuous_window_128(_NAS, _NAV),
        "NAS/SYNC": continuous_window_128(_NAS, _SYNC),
        "NAS/ORACLE": continuous_window_128(_NAS, _ORACLE),
        "AS/NO": continuous_window_128(_AS, _NO, 0),
        "AS/NAV": continuous_window_128(_AS, _NAV, 0),
    }
    ipc = {
        label: {
            name: run_benchmark(name, config, settings).ipc
            for name in benchmarks
        }
        for label, config in cfgs.items()
    }

    def mean_speedup(num: str, den: str, suite_list) -> float:
        ratios = [
            ipc[num][b] / ipc[den][b]
            for b in benchmarks if b in suite_list
        ]
        return (geometric_mean(ratios) - 1) * 100

    rows = []
    data = {}
    for key, num, den in (
        ("oracle_over_no", "NAS/ORACLE", "NAS/NO"),
        ("nav_over_no", "NAS/NAV", "NAS/NO"),
        ("asnav_over_asno", "AS/NAV", "AS/NO"),
        ("sync_over_nav", "NAS/SYNC", "NAS/NAV"),
        ("oracle_over_nav", "NAS/ORACLE", "NAS/NAV"),
    ):
        for suite, members in (("int", INT_BENCHMARKS),
                               ("fp", FP_BENCHMARKS)):
            measured = mean_speedup(num, den, members)
            paper = PAPER_SUMMARY[f"{key}_{suite}"]
            rows.append((
                f"{num} over {den}", suite,
                f"{measured:+.1f}%", f"{paper:+.1f}%",
            ))
            data[f"{key}_{suite}"] = {
                "measured": measured, "paper": paper,
            }
    return ExperimentReport(
        experiment="Summary",
        title="Section 4 average speedups (geo-mean), measured vs paper",
        headers=("comparison", "suite", "measured", "paper"),
        rows=rows,
        data=data,
    )
