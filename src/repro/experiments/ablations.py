"""Ablation studies for design choices DESIGN.md calls out.

These go beyond the paper's figures:

* **recovery** — squash invalidation (the paper's model) vs selective
  invalidation (its Section 2 alternative) under naive speculation;
* **predictors** — the paper's MDPT/synonym synchronization vs the
  store-set predictor of its reference [4], plus MDPT capacity;
* **window sweep** — extends Figure 1's 64/128 comparison to 32..256
  entries.

Each ``<driver>_cells`` function declares the cells its driver requests
(:class:`~repro.experiments.runner.Cells`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

from repro.config.presets import continuous_window_128, split_window
from repro.config.processor import (
    SchedulingModel,
    SpeculationPolicy,
    WindowConfig,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import (
    DEFAULT_SETTINGS,
    Cells,
    ExperimentSettings,
    run_benchmark,
)
from repro.stats.summary import geometric_mean

_NAS = SchedulingModel.NAS
_NAV = SpeculationPolicy.NAIVE
_ORACLE = SpeculationPolicy.ORACLE

_ABLATION_BENCHES = (
    "126.gcc", "129.compress", "134.perl",
    "104.hydro2d", "103.su2cor", "102.swim",
)
_SPLIT_BENCHES = ("129.compress", "126.gcc", "104.hydro2d")


def ablation_recovery_cells(
    benchmarks: Sequence[str] = _ABLATION_BENCHES,
) -> Cells:
    return Cells({
        "squash": continuous_window_128(_NAS, _NAV),
        "selective": continuous_window_128(
            _NAS, _NAV, recovery="selective"
        ),
        "oracle": continuous_window_128(_NAS, _ORACLE),
    }, benchmarks)


def ablation_recovery(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=_ABLATION_BENCHES,
) -> ExperimentReport:
    """Squash vs selective invalidation under naive speculation."""
    cells = ablation_recovery_cells(benchmarks)
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for name in cells.benchmarks:
        squash = run_benchmark(name, cells.configs["squash"], settings)
        selective = run_benchmark(
            name, cells.configs["selective"], settings
        )
        oracle = run_benchmark(name, cells.configs["oracle"], settings)
        rows.append((
            name,
            f"{squash.ipc:.2f}", f"{selective.ipc:.2f}",
            f"{oracle.ipc:.2f}",
            f"{(selective.ipc / squash.ipc - 1) * 100:+.1f}%",
        ))
        data[name] = {
            "squash": squash.ipc,
            "selective": selective.ipc,
            "oracle": oracle.ipc,
        }
    return ExperimentReport(
        experiment="Ablation A1",
        title=("Miss-speculation recovery: squash vs selective "
               "invalidation (NAS/NAV)"),
        headers=("program", "squash", "selective", "oracle", "gain"),
        rows=rows,
        notes=[
            "Section 2 of the paper: selective invalidation shrinks the "
            "work lost per miss-speculation to the load's forward "
            "slice. With it, naive speculation approaches the oracle — "
            "which is why the paper treats recovery cost, not detection, "
            "as naive speculation's real problem.",
        ],
        data=data,
    )


def ablation_predictors_cells(
    benchmarks: Sequence[str] = _ABLATION_BENCHES,
) -> Cells:
    """The NAS/NAV base, then each predictor under test."""
    return Cells({
        "nav": continuous_window_128(_NAS, _NAV),
        "SYNC 4K": continuous_window_128(_NAS, SpeculationPolicy.SYNC),
        "SYNC 256": continuous_window_128(
            _NAS, SpeculationPolicy.SYNC, predictor_entries=256
        ),
        "SSET 4K": continuous_window_128(
            _NAS, SpeculationPolicy.STORE_SETS
        ),
    }, benchmarks)


def ablation_predictors(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=_ABLATION_BENCHES,
) -> ExperimentReport:
    """MDPT/synonyms vs store sets; MDPT capacity sensitivity."""
    cells = ablation_predictors_cells(benchmarks)
    predictors = {
        label: config
        for label, config in cells.configs.items() if label != "nav"
    }
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for name in cells.benchmarks:
        nav = run_benchmark(name, cells.configs["nav"], settings)
        row = [name]
        record: Dict[str, float] = {"nav": nav.ipc}
        for label, config in predictors.items():
            result = run_benchmark(name, config, settings)
            record[label] = result.ipc
            record[f"{label} miss"] = result.misspeculation_rate
            row.append(f"{(result.ipc / nav.ipc - 1) * 100:+.1f}%")
        rows.append(tuple(row))
        data[name] = record
    return ExperimentReport(
        experiment="Ablation A2",
        title=("Dependence predictors vs NAS/NAV: MDPT (4K / 256 "
               "entries) and store sets"),
        headers=("program", "SYNC 4K", "SYNC 256", "SSET 4K"),
        rows=rows,
        notes=[
            "Store sets (Chrysos & Emer, the paper's [4]) and the MDPT "
            "synchronize the same dependences; with our static-pair "
            "counts, even a 256-entry MDPT rarely aliases.",
        ],
        data=data,
    )


def ablation_squash_penalty_cells(
    benchmarks: Sequence[str] = _ABLATION_BENCHES,
    penalties=(2, 4, 8, 16),
) -> Cells:
    """NAS/NAV keyed by squash refill penalty, plus NAS/ORACLE."""
    return Cells({
        **{
            penalty: continuous_window_128(
                _NAS, _NAV, squash_refill_penalty=penalty
            )
            for penalty in penalties
        },
        "oracle": continuous_window_128(_NAS, _ORACLE),
    }, benchmarks)


def ablation_squash_penalty(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=_ABLATION_BENCHES,
    penalties=(2, 4, 8, 16),
) -> ExperimentReport:
    """Naive speculation's sensitivity to the squash refill penalty.

    Section 2 decomposes the miss-speculation penalty into lost work,
    invalidation time, and opportunity cost; this sweep varies the
    refill component and shows NAV degrading while ORACLE (which never
    squashes) is untouched.
    """
    cells = ablation_squash_penalty_cells(benchmarks, penalties)
    oracle_cfg = cells.configs["oracle"]
    rows = []
    data: Dict[int, Dict[str, float]] = {}
    for penalty in penalties:
        nav_cfg = cells.configs[penalty]
        ratios = []
        for name in cells.benchmarks:
            nav = run_benchmark(name, nav_cfg, settings)
            oracle = run_benchmark(name, oracle_cfg, settings)
            ratios.append(nav.ipc / oracle.ipc)
        mean = geometric_mean(ratios)
        data[penalty] = {"nav_vs_oracle": mean}
        rows.append((penalty, f"{mean:.3f}"))
    return ExperimentReport(
        experiment="Ablation A4",
        title=("NAS/NAV performance (relative to NAS/ORACLE) vs squash "
               "refill penalty"),
        headers=("refill cycles", "NAV/ORACLE"),
        rows=rows,
        notes=[
            "The cheaper recovery is, the closer naive speculation gets "
            "to perfect dependence knowledge — the same conclusion the "
            "selective-invalidation ablation reaches from the other "
            "direction.",
        ],
        data=data,
    )


def ablation_split_geometry_cells(
    benchmarks: Sequence[str] = _SPLIT_BENCHES,
    unit_counts=(2, 4, 8),
) -> Cells:
    """Split AS/NAV machines keyed by unit count; 128 entries in all."""
    return Cells({
        units: split_window(
            SchedulingModel.AS, _NAV,
            num_units=units, task_size=max(8, 128 // units),
        )
        for units in unit_counts
    }, benchmarks)


def ablation_split_geometry(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=_SPLIT_BENCHES,
    unit_counts=(2, 4, 8),
) -> ExperimentReport:
    """Section 3.7's effect vs the degree of window distribution.

    More (smaller) sub-windows mean more cross-unit dependences whose
    store addresses are invisible at load-issue time — the split-window
    miss-speculation rate should grow with the unit count.
    """
    cells = ablation_split_geometry_cells(benchmarks, unit_counts)
    rows = []
    data: Dict[int, float] = {}
    for units, config in cells.configs.items():
        task_size = config.split.task_size
        rates = []
        for name in cells.benchmarks:
            result = run_benchmark(name, config, settings)
            rates.append(result.misspeculation_rate)
        mean_rate = sum(rates) / len(rates)
        data[units] = mean_rate
        rows.append((
            f"{units} x {task_size}",
            f"{mean_rate * 100:.2f}%",
        ))
    return ExperimentReport(
        experiment="Ablation A5",
        title=("Split-window miss-speculation rate vs number of "
               "sub-windows (AS/NAV, 0-cycle scheduler)"),
        headers=("units x task", "miss-spec rate"),
        rows=rows,
        notes=[
            "The continuous window (1 unit, in effect) sits at zero; "
            "distribution is what re-introduces miss-speculation even "
            "with instant address inspection.",
        ],
        data=data,
    )


def _scaled_window(size: int) -> WindowConfig:
    scale = max(1, size // 32)
    return WindowConfig(
        size=size,
        issue_width=min(8, 2 * scale),
        memory_ports=min(4, scale),
        fu_copies=min(8, 2 * scale),
    )


def ablation_window_cells(
    benchmarks: Sequence[str] = _ABLATION_BENCHES,
    sizes=(32, 64, 128, 256),
) -> Cells:
    """NAS/NO and NAS/ORACLE keyed by (window size, policy)."""
    return Cells({
        (size, policy): replace(
            continuous_window_128(_NAS, policy),
            window=_scaled_window(size),
        )
        for size in sizes
        for policy in (SpeculationPolicy.NO, _ORACLE)
    }, benchmarks)


def ablation_window(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks=_ABLATION_BENCHES,
    sizes=(32, 64, 128, 256),
) -> ExperimentReport:
    """Oracle-over-NO speedup as a function of window size."""
    cells = ablation_window_cells(benchmarks, sizes)
    rows = []
    data: Dict[int, float] = {}
    for size in sizes:
        no_cfg = cells.configs[size, SpeculationPolicy.NO]
        oracle_cfg = cells.configs[size, _ORACLE]
        ratios = []
        for name in cells.benchmarks:
            no = run_benchmark(name, no_cfg, settings)
            oracle = run_benchmark(name, oracle_cfg, settings)
            ratios.append(oracle.ipc / no.ipc)
        mean = geometric_mean(ratios)
        data[size] = mean
        rows.append((size, f"{(mean - 1) * 100:+.1f}%"))
    return ExperimentReport(
        experiment="Ablation A3",
        title=("Load/store-parallelism payoff vs window size "
               "(oracle-over-NO geo-mean)"),
        headers=("window", "oracle speedup"),
        rows=rows,
        notes=[
            "Figure 1's observation extended: the more stores a window "
            "holds, the more false dependences a no-speculation policy "
            "suffers — the payoff keeps growing with window size.",
        ],
        data=data,
    )
