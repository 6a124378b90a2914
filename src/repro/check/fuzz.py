"""Metamorphic design-space fuzzer.

Samples random (workload, window, scheduling, policy-family, latency,
run-length) cells, runs every policy of the family on the *same* cell,
and asserts the paper's cross-policy relations:

* **R1 commit-equality** (exact) — speculation policy changes timing,
  never the committed instruction stream: ``committed``,
  ``committed_loads``, ``committed_stores`` and ``committed_branches``
  must be identical across all policies of a cell;
* **R2 non-speculative cleanliness** (exact) — NO and ORACLE never
  miss-speculate: zero miss-speculations and zero squashed
  instructions (Section 2.1 / 3.4.1);
* **R3 oracle dominance** (toleranced) — ORACLE's IPC is an upper
  bound for every real policy. Second-order timing effects (e.g. a
  squash that prefetches) let a policy land a fraction of a percent
  above ORACLE on tiny traces, so the relation is asserted within a
  small ``tolerance`` (default 2%; the worst legitimate excursion
  observed across the calibrated design space is 0.42%);
* **R4 squash accounting** (exact) — zero miss-speculations implies
  zero squashed instructions, for every policy;
* **R5 AS/NAV miss-speculation rate** (threshold) — with address
  scheduling, naive speculation's miss-speculation rate is "virtually
  non-existent" (Section 3.3): bounded by ``nav_rate_threshold``
  (default 1% of committed loads; observed < 0.5%).
* **R6 split-window loophole** (Section 3.7 / Figure 7) — sampled
  split-window cells (``split_units > 0``, AS/NAV only) assert that
  (a) the split machine's miss-speculation rate is no lower than the
  continuous machine's at the same design point (within
  ``nav_rate_threshold`` slack — the continuous AS/NAV rate is itself
  bounded by R5), and (b) miss-speculations are non-decreasing in
  scheduler latency across the latency pool, within
  :data:`SPLIT_MONO_TOLERANCE` (squash feedback on short traces lets
  counts dip a few percent between adjacent latencies; the worst
  legitimate excursion observed across the calibrated design space is
  17.4%). The committed instruction stream must stay latency-invariant
  exactly (R1's argument applied to a timing-only knob). Cells with
  ``split_bandwidth > 0`` send posted addresses through the split
  window's sync fabric (:mod:`repro.splitwindow.fabric`), so corpus
  replay also exercises its delivery path.

A failing cell is minimised by halving its run lengths while the
failure persists, and can be saved as a JSON corpus entry; the
checked-in regression corpus under ``tests/corpus/`` is replayed by CI
and the test suite (see docs/TESTING.md for the reproduction flow).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

from repro.config.presets import (
    continuous_window_64,
    continuous_window_128,
    split_window,
)
from repro.config.processor import (
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
)

#: Policy families per scheduling model (config validation only admits
#: the predictor policies under NAS).
NAS_POLICIES = ("NO", "NAV", "SEL", "STORE", "SYNC", "ORACLE", "SSET")
AS_POLICIES = ("NO", "NAV", "ORACLE")

#: Default sampling pools. SPEC'95 stand-ins only: they are generated
#: to the exact requested length for any seed, which kernels are not.
DEFAULT_BENCHMARKS = (
    "099.go", "126.gcc", "129.compress", "130.li", "132.ijpeg",
    "102.swim", "104.hydro2d", "107.mgrid", "110.applu", "141.apsi",
)
_TIMING_POOL = (1_500, 2_500, 4_000)
_WARMUP_POOL = (500, 1_000, 2_000)
_WINDOW_POOL = (64, 128)
_LATENCY_POOL = (0, 1, 2)
_SPLIT_UNITS_POOL = (2, 4, 8)
_SPLIT_TASK_POOL = (16, 32)
_SPLIT_BANDWIDTH_POOL = (0, 0, 2, 4)  # mostly the ideal fabric

#: R6b slack: miss-speculation counts may dip between adjacent
#: scheduler latencies because a squash reshuffles all downstream
#: timing. Calibrated over benchmarks x seeds x unit geometries x run
#: lengths: 27/120 cells show a dip, worst 17.4% (099.go, 1.5k timed
#: instructions). Anything beyond 25% is a real monotonicity bug.
SPLIT_MONO_TOLERANCE = 0.25


@dataclass(frozen=True)
class FuzzCell:
    """One sampled design-space point (everything but the policy).

    ``split_units > 0`` marks a split-window cell (AS/NAV only, R6):
    the window is partitioned into that many sub-windows running
    ``split_task``-instruction tasks, with the sync fabric limited to
    ``split_bandwidth`` messages per cycle (0 = unbounded). Split
    fields are optional in serialized form, so version-1 corpora load
    unchanged.
    """

    benchmark: str
    seed: int
    window: int
    scheduling: str  # "NAS" | "AS"
    latency: int
    timing: int
    warmup: int
    split_units: int = 0
    split_task: int = 0
    split_bandwidth: int = 0

    def policies(self) -> Sequence[str]:
        if self.split_units:
            return ("NAV",)
        return AS_POLICIES if self.scheduling == "AS" else NAS_POLICIES

    def config(
        self, policy: str, latency: Optional[int] = None
    ) -> ProcessorConfig:
        if latency is None:
            latency = self.latency
        if self.split_units:
            return split_window(
                SchedulingModel(self.scheduling),
                SpeculationPolicy(policy),
                addr_scheduler_latency=latency,
                num_units=self.split_units,
                task_size=self.split_task,
                sync_bandwidth=self.split_bandwidth,
            )
        preset = (
            continuous_window_128 if self.window == 128
            else continuous_window_64
        )
        return preset(
            SchedulingModel(self.scheduling),
            SpeculationPolicy(policy),
            addr_scheduler_latency=latency,
        )

    def to_dict(self) -> dict:
        data = asdict(self)
        if not self.split_units:
            for key in ("split_units", "split_task", "split_bandwidth"):
                del data[key]
        return data

    @staticmethod
    def from_dict(data: dict) -> "FuzzCell":
        return FuzzCell(
            benchmark=data["benchmark"],
            seed=int(data["seed"]),
            window=int(data["window"]),
            scheduling=data["scheduling"],
            latency=int(data["latency"]),
            timing=int(data["timing"]),
            warmup=int(data["warmup"]),
            split_units=int(data.get("split_units", 0)),
            split_task=int(data.get("split_task", 0)),
            split_bandwidth=int(data.get("split_bandwidth", 0)),
        )


@dataclass
class FuzzResult:
    """Outcome of one fuzzing session."""

    cells_run: int = 0
    failures: List[dict] = field(default_factory=list)
    #: Minimised reproducers (same order as ``failures``' cells).
    minimized: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells_run": self.cells_run,
            "failures": self.failures,
            "minimized": self.minimized,
        }


def sample_cell(
    rng: random.Random,
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
) -> FuzzCell:
    """Draw one design-space point from the sampling pools.

    About a quarter of AS draws become split-window cells (R6); the
    paper's split-window argument is specific to the address-based
    scheduler, so NAS cells are never split.
    """
    scheduling = rng.choice(("NAS", "AS"))
    split = scheduling == "AS" and rng.randrange(4) == 0
    return FuzzCell(
        benchmark=rng.choice(benchmarks),
        seed=rng.randrange(6),
        window=rng.choice(_WINDOW_POOL),
        scheduling=scheduling,
        latency=rng.choice(_LATENCY_POOL) if scheduling == "AS" else 0,
        timing=rng.choice(_TIMING_POOL),
        warmup=rng.choice(_WARMUP_POOL),
        split_units=rng.choice(_SPLIT_UNITS_POOL) if split else 0,
        split_task=rng.choice(_SPLIT_TASK_POOL) if split else 0,
        split_bandwidth=rng.choice(_SPLIT_BANDWIDTH_POOL) if split else 0,
    )


def _run_split_cell(
    cell: FuzzCell,
    nav_rate_threshold: float,
) -> List[dict]:
    """R6 relations for one split-window cell (see module docstring)."""
    from repro.experiments.runner import ExperimentSettings, run_benchmark

    settings = ExperimentSettings(
        timing_instructions=cell.timing,
        warmup_instructions=cell.warmup,
        seed=cell.seed,
    )
    failures: List[dict] = []

    def fail(relation: str, detail: str) -> None:
        failures.append(
            {"relation": relation, "cell": cell.to_dict(), "detail": detail}
        )

    # NAS has no address scheduler, hence no latency axis to sweep.
    latency_pool = _LATENCY_POOL if cell.scheduling == "AS" else (0,)
    by_latency = {
        latency: run_benchmark(
            cell.benchmark, cell.config("NAV", latency), settings
        )
        for latency in latency_pool
    }
    cont = run_benchmark(
        cell.benchmark,
        continuous_window_128(
            SchedulingModel(cell.scheduling),
            SpeculationPolicy.NAIVE,
            addr_scheduler_latency=cell.latency,
        ),
        settings,
    )

    # R6a: the split window cannot be cleaner than the continuous one.
    split_rate = by_latency[cell.latency].misspeculation_rate
    if split_rate + nav_rate_threshold < cont.misspeculation_rate:
        fail(
            "split-loophole",
            f"split miss-speculation rate {split_rate:.4f} below the "
            f"continuous-window rate {cont.misspeculation_rate:.4f} "
            f"beyond slack {nav_rate_threshold:.4f}",
        )

    # R6b: miss-speculations non-decreasing in scheduler latency
    # (within SPLIT_MONO_TOLERANCE), committed stream exactly invariant.
    latencies = sorted(by_latency)
    for lo, hi in zip(latencies, latencies[1:]):
        before = by_latency[lo].misspeculations
        after = by_latency[hi].misspeculations
        if after < before * (1.0 - SPLIT_MONO_TOLERANCE):
            fail(
                "split-latency-monotonicity",
                f"miss-speculations fell {before} -> {after} from "
                f"latency {lo} to {hi} (beyond "
                f"{SPLIT_MONO_TOLERANCE:.0%} tolerance)",
            )
    for counter in (
        "committed", "committed_loads", "committed_stores",
        "committed_branches",
    ):
        values = {
            lat: getattr(r, counter) for lat, r in by_latency.items()
        }
        if len(set(values.values())) > 1:
            fail(
                "commit-equality",
                f"{counter} varies with scheduler latency: {values}",
            )

    # Squash accounting holds for the split model too.
    for latency, r in by_latency.items():
        if not r.misspeculations and r.squashed_instructions:
            fail(
                "squash-accounting",
                f"latency {latency} squashed "
                f"{r.squashed_instructions} instructions with zero "
                f"miss-speculations",
            )
    return failures


def run_cell(
    cell: FuzzCell,
    tolerance: float = 0.02,
    nav_rate_threshold: float = 0.01,
) -> List[dict]:
    """Run every policy of *cell*'s family; return relation failures."""
    from repro.experiments.runner import ExperimentSettings, run_benchmark

    if cell.split_units:
        return _run_split_cell(cell, nav_rate_threshold)
    settings = ExperimentSettings(
        timing_instructions=cell.timing,
        warmup_instructions=cell.warmup,
        seed=cell.seed,
    )
    results = {
        policy: run_benchmark(cell.benchmark, cell.config(policy), settings)
        for policy in cell.policies()
    }
    failures: List[dict] = []

    def fail(relation: str, detail: str) -> None:
        failures.append(
            {"relation": relation, "cell": cell.to_dict(), "detail": detail}
        )

    # R1: the committed stream is policy-invariant.
    for counter in (
        "committed", "committed_loads", "committed_stores",
        "committed_branches",
    ):
        values = {p: getattr(r, counter) for p, r in results.items()}
        if len(set(values.values())) > 1:
            fail(
                "commit-equality",
                f"{counter} differs across policies: {values}",
            )

    # R2: the non-speculative endpoints never miss-speculate.
    for policy in ("NO", "ORACLE"):
        r = results[policy]
        if r.misspeculations or r.squashed_instructions:
            fail(
                "nonspeculative-cleanliness",
                f"{policy} reports {r.misspeculations} miss-"
                f"speculations / {r.squashed_instructions} squashed",
            )

    # R3: ORACLE is an IPC upper bound (within tolerance).
    oracle_ipc = results["ORACLE"].ipc
    floor = 1.0 - tolerance
    for policy, r in results.items():
        if policy == "ORACLE":
            continue
        if r.ipc * floor > oracle_ipc:
            fail(
                "oracle-dominance",
                f"{policy} IPC {r.ipc:.4f} exceeds ORACLE "
                f"{oracle_ipc:.4f} beyond tolerance {tolerance:.2%}",
            )

    # R4: squashes imply recorded miss-speculations.
    for policy, r in results.items():
        if not r.misspeculations and r.squashed_instructions:
            fail(
                "squash-accounting",
                f"{policy} squashed {r.squashed_instructions} "
                f"instructions with zero miss-speculations",
            )

    # R5: AS/NAV miss-speculation is virtually non-existent.
    if cell.scheduling == "AS":
        r = results["NAV"]
        if r.misspeculation_rate > nav_rate_threshold:
            fail(
                "as-nav-missp-rate",
                f"AS/NAV miss-speculation rate "
                f"{r.misspeculation_rate:.4f} exceeds "
                f"{nav_rate_threshold:.4f}",
            )
    return failures


def minimize_cell(
    cell: FuzzCell,
    tolerance: float = 0.02,
    nav_rate_threshold: float = 0.01,
    floor: int = 500,
) -> FuzzCell:
    """Halve the failing cell's run lengths while it still fails."""
    current = cell
    for _ in range(12):
        candidates = []
        if current.timing // 2 >= floor:
            candidates.append(
                FuzzCell(**{**current.to_dict(), "timing": current.timing // 2})
            )
        if current.warmup:
            candidates.append(
                FuzzCell(**{**current.to_dict(), "warmup": current.warmup // 2})
            )
        shrunk = None
        for candidate in candidates:
            if run_cell(candidate, tolerance, nav_rate_threshold):
                shrunk = candidate
                break
        if shrunk is None:
            return current
        current = shrunk
    return current


def fuzz(
    budget: int = 5,
    rng_seed: int = 0,
    tolerance: float = 0.02,
    nav_rate_threshold: float = 0.01,
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    corpus: Sequence[FuzzCell] = (),
    minimize: bool = True,
    log=None,
) -> FuzzResult:
    """Replay *corpus*, then explore *budget* random cells."""
    rng = random.Random(rng_seed)
    result = FuzzResult()
    cells = list(corpus) + [
        sample_cell(rng, benchmarks) for _ in range(budget)
    ]
    for index, cell in enumerate(cells):
        if log is not None:
            origin = "corpus" if index < len(corpus) else "random"
            log(f"[{index + 1}/{len(cells)}] {origin} {cell.to_dict()}")
        failures = run_cell(cell, tolerance, nav_rate_threshold)
        result.cells_run += 1
        if not failures:
            continue
        result.failures.extend(failures)
        if minimize:
            small = minimize_cell(cell, tolerance, nav_rate_threshold)
            result.minimized.append(small.to_dict())
        else:
            result.minimized.append(cell.to_dict())
    return result


# -- corpus I/O ---------------------------------------------------------------

CORPUS_VERSION = 1


def load_corpus(path: str) -> List[FuzzCell]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != CORPUS_VERSION:
        raise ValueError(
            f"corpus {path} has version {data.get('version')!r}; "
            f"expected {CORPUS_VERSION}"
        )
    return [FuzzCell.from_dict(entry) for entry in data["cells"]]


def save_corpus(path: str, cells: Sequence[FuzzCell]) -> None:
    payload = {
        "version": CORPUS_VERSION,
        "cells": [cell.to_dict() for cell in cells],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def replay_corpus(
    path: str,
    tolerance: float = 0.02,
    nav_rate_threshold: float = 0.01,
    log=None,
) -> FuzzResult:
    """Re-run every checked-in cell; random budget zero."""
    return fuzz(
        budget=0,
        corpus=load_corpus(path),
        tolerance=tolerance,
        nav_rate_threshold=nav_rate_threshold,
        minimize=False,
        log=log,
    )
